package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"sensorsafe/internal/broker"
	"sensorsafe/internal/datastore"
	"sensorsafe/internal/httpapi"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuantilesAndTailSupport(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := median(xs); !near(got, 5.5) {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := quantileOf(xs, 0.9); !near(got, 9.1) {
		t.Errorf("p90 = %v, want 9.1", got)
	}
	if got := quantileOf(nil, 0.5); got != 0 {
		t.Errorf("quantile of no data = %v, want 0", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(xs)
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if !near(q1, 1) || !near(q2, 2) || !near(q3, 3) {
		t.Errorf("quartiles of three = %v %v %v, want 1 2 3", q1, q2, q3)
	}
	if got := spread(xs); !near(got, 1) {
		t.Errorf("spread = %v, want 1", got)
	}
	// A percentile is reported only with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{{199, 0.95, false}, {200, 0.95, true}, {99, 0.90, false}, {100, 0.90, true}, {1000, 0.99, true}, {999, 0.99, false}} {
		if got := supports(c.n, c.p); got != c.want {
			t.Errorf("supports(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestParseProm(t *testing.T) {
	text := []byte(`# HELP x_total things
# TYPE x_total counter
x_total{component="store",reason="brownout"} 3
x_total{component="store",reason="capacity"} 4
x_total{component="broker",reason="brownout"} 100
plain 2.5
esc{msg="a \"quoted\", comma",k="v"} 1
h_seconds_bucket{route="/q",le="0.1"} 10
h_seconds_bucket{route="/q",le="1"} 30
h_seconds_bucket{route="/q",le="+Inf"} 40
h_seconds_sum{route="/q"} 20
h_seconds_count{route="/q"} 40
`)
	p := parseProm(text)
	if got := p.sum("x_total", "component", "store"); got != 7 {
		t.Errorf("sum over store = %v, want 7", got)
	}
	if got := p.sum("x_total", "component", "store", "reason", "capacity"); got != 4 {
		t.Errorf("sum over store/capacity = %v, want 4", got)
	}
	if got := p.sum("plain"); got != 2.5 {
		t.Errorf("plain = %v, want 2.5", got)
	}
	if got := p.sum("esc", "msg", `a "quoted", comma`, "k", "v"); got != 1 {
		t.Errorf("escaped label not parsed: %+v", p)
	}
	d := promDelta{before: parseProm([]byte("h_seconds_count{route=\"/q\"} 0\n")), after: p}
	if got := d.mean("h_seconds", "route", "/q"); !near(got, 0.5) {
		t.Errorf("mean = %v, want 0.5", got)
	}
	// Rank 20 of 40 lies halfway through the (0.1, 1] bucket.
	if got := d.quantile(0.5, "h_seconds", "route", "/q"); !near(got, 0.55) {
		t.Errorf("median from buckets = %v, want 0.55", got)
	}
	// Beyond the last finite bound the estimate is that bound.
	if got := d.quantile(0.99, "h_seconds", "route", "/q"); !near(got, 1) {
		t.Errorf("p99 from buckets = %v, want 1", got)
	}
	if got := (promDelta{}).quantile(0.5, "h_seconds"); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}

func TestParseProc(t *testing.T) {
	stat := []byte("4242 (store) server)) S 1 4242 4242 0 -1 4194560 1000 0 0 0 123 45 0 0 20 0 9 0 100 1000000 500 18446744073709551615\n")
	user, sys, err := parseProcStat(stat)
	if err != nil || user != 1230*time.Millisecond || sys != 450*time.Millisecond {
		t.Errorf("parseProcStat = %v %v %v, want 1.23s 450ms", user, sys, err)
	}
	if _, _, err := parseProcStat([]byte("garbage")); err == nil {
		t.Error("parseProcStat accepted garbage")
	}
	status := []byte("Name:\tstoreserver\nVmPeak:\t  999 kB\nVmHWM:\t   2048 kB\nVmRSS:\t 100 kB\n")
	if got := parseProcField(status, "VmHWM:"); got != 2048 {
		t.Errorf("VmHWM = %d, want 2048", got)
	}
	io := []byte("rchar: 1\nwchar: 2\nread_bytes: 4096\nwrite_bytes: 8192\ncancelled_write_bytes: 3\n")
	if r, w := parseProcField(io, "read_bytes:"), parseProcField(io, "write_bytes:"); r != 4096 || w != 8192 {
		t.Errorf("io = %d %d, want 4096 8192", r, w)
	}
	if got := parseProcField(io, "absent:"); got != 0 {
		t.Errorf("absent field = %d, want 0", got)
	}
	if s, err := readProc(os.Getpid()); err != nil || s.PeakRSSBytes <= 0 {
		t.Errorf("readProc(self) = %+v, %v", s, err)
	}
}

func TestLedgerRoundTripAndCatalogue(t *testing.T) {
	run := func(v float64) *result {
		r := &result{Workload: "query_point", Metrics: map[string]value{}}
		r.set("op_p50_ms", v, 100)
		r.set("segstore.scan_ms", v/10, 100)
		return r
	}
	env := envInfo{Go: "go1.x", NProc: 2, Commit: "abc", Seed: 1}
	rows := rowsOf([]*result{run(10), run(12), run(11), run(30)}, env)
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	for _, r := range rows {
		switch r.Metric {
		case "op_p50_ms":
			if r.Layer != "e2e" || !near(r.Value, 11.5) || r.N != 4 || r.Unit != "ms" || r.Spread <= 0 {
				t.Errorf("e2e row = %+v", r)
			}
		case "scan_ms":
			if r.Layer != "segstore" {
				t.Errorf("layer row = %+v", r)
			}
		default:
			t.Errorf("unexpected row %+v", r)
		}
	}
	path := filepath.Join(t.TempDir(), "ledger.json")
	if err := writeLedger(path, rows); err != nil {
		t.Fatal(err)
	}
	back, err := readLedger(path)
	if err != nil || !reflect.DeepEqual(back, rows) {
		t.Errorf("round trip = %+v, %v; want %+v", back, err, rows)
	}
	// The schema ROADMAP item 1 asks for, by its JSON names.
	var raw []map[string]any
	data, _ := os.ReadFile(path)
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"workload", "layer", "metric", "value", "unit", "n", "env"} {
		if _, ok := raw[0][key]; !ok {
			t.Errorf("ledger row lacks %q: %v", key, raw[0])
		}
	}
}

// TestBenchmarkJSON keeps the driver's declaration equal to the catalogue
// the bench reports from.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatalf("BENCHMARK.json has keys beyond the contract: %v", err)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads = %v, want %v", names, workloadNames)
	}
	if len(decl.EndToEnd) != len(e2eMetrics) || len(decl.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the catalogue has %d+%d",
			len(decl.EndToEnd), len(decl.PerLayer), len(e2eMetrics), len(layerMetrics))
	}
	for i, m := range decl.EndToEnd {
		if want := e2eMetrics[i]; m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better || m.Bound != want.Bound {
			t.Errorf("end_to_end[%d] = %+v, catalogue has %+v", i, m, want)
		}
	}
	for i, m := range decl.PerLayer {
		if want := layerMetrics[i]; m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
			t.Errorf("per_layer[%d] = %+v, catalogue has %+v", i, m, want)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := judged{metricSpec: metricSpec{Name: "op_p50_ms", Better: "lower", Bound: 0.10}}
	higher := judged{metricSpec: metricSpec{Name: "samples_per_s", Better: "higher", Bound: 0.10}}
	ratio := judged{metricSpec: metricSpec{Name: "client.failed_ops_ratio", Better: "lower", Bound: 0.02}, Absolute: true}
	for _, c := range []struct {
		name      string
		j         judged
		base, now row
		want      string
	}{
		{"within bound", lower, row{Value: 100}, row{Value: 109}, "ok"},
		{"better", lower, row{Value: 100}, row{Value: 50}, "ok"},
		{"worse than bound", lower, row{Value: 100}, row{Value: 111}, "regressed"},
		{"throughput fell", higher, row{Value: 100}, row{Value: 89}, "regressed"},
		{"throughput rose", higher, row{Value: 100}, row{Value: 150}, "ok"},
		{"spread wider than bound", lower, row{Value: 100, Spread: 0.2}, row{Value: 150}, "unresolved"},
		{"generator was the bottleneck", lower, row{Value: 100}, row{Value: 150, Invalid: true}, "invalid"},
		{"ratio from nothing, within", ratio, row{Value: 0}, row{Value: 0.015}, "ok"},
		{"ratio doubled", ratio, row{Value: 0.08}, row{Value: 0.16}, "regressed"},
		{"ratio's quartiles further apart than the bound", ratio, row{Value: 0.08, Spread: 0.5}, row{Value: 0.16}, "unresolved"},
	} {
		if _, got := verdict(c.j, c.base, c.now); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
	var out bytes.Buffer
	base := []row{{Workload: "query_point", Layer: "e2e", Metric: "op_p50_ms", Value: 100}}
	if diffLedgers(&out, base, []row{{Workload: "query_point", Layer: "e2e", Metric: "op_p50_ms", Value: 105}}) {
		t.Errorf("5%% worse reported as a regression:\n%s", out.String())
	}
	if !diffLedgers(&out, base, []row{{Workload: "query_point", Layer: "e2e", Metric: "op_p50_ms", Value: 200}}) {
		t.Errorf("100%% worse not reported:\n%s", out.String())
	}
	// Shedding and stream delivery are judged where they happen, and only there.
	delivery := func(workload string, v float64) []row {
		return []row{{Workload: workload, Layer: "client", Metric: "stream_delivery_p50_ms", Value: v}}
	}
	if !diffLedgers(&out, delivery("live_mixed", 20), delivery("live_mixed", 40)) {
		t.Errorf("live_mixed stream delivery twice as slow not reported:\n%s", out.String())
	}
	if diffLedgers(&out, delivery("query_point", 20), delivery("query_point", 40)) {
		t.Errorf("a client metric was judged on a workload without a stream:\n%s", out.String())
	}
}

// TestCatalogue checks that the predictions and the judged pairs name
// things that exist.
func TestCatalogue(t *testing.T) {
	known := func(list []string, name string) bool {
		for _, x := range list {
			if x == name {
				return true
			}
		}
		return false
	}
	for _, m := range layerMetrics {
		layer, _ := layerOf(m.Name)
		if _, ok := layerSpecOf(layer); !ok {
			t.Errorf("%s: layer %q has no prediction in layerSpecs", m.Name, layer)
		}
	}
	for _, l := range layerSpecs {
		for _, name := range l.Moves {
			if _, ok := specOf(name); !ok {
				t.Errorf("layer %s should move %q, which is not in the catalogue", l.Layer, name)
			}
		}
		for _, w := range append(append([]string{}, l.On...), l.NotOn...) {
			if !known(workloadNames, w) {
				t.Errorf("layer %s names workload %q", l.Layer, w)
			}
		}
	}
	for _, j := range liveJudged {
		spec, ok := specOf(j.Name)
		if !ok || spec.Unit != j.Unit || spec.Better != j.Better || !known(workloadNames, j.Workload) {
			t.Errorf("judged pair %+v disagrees with the catalogue entry %+v", j, spec)
		}
	}
}

// TestContractLine checks that the driver is given exactly the metrics
// BENCHMARK.json declares for the kind of run, whatever else was measured.
func TestContractLine(t *testing.T) {
	for _, traced := range []bool{false, true} {
		r := &result{Trace: traced, Correct: true, Attempted: 3, Metrics: map[string]value{}}
		for _, m := range append(append([]metricSpec{}, e2eMetrics...), layerMetrics...) {
			r.set(m.Name, 1.5, 1)
		}
		var line struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(contractLine(r)), &line); err != nil {
			t.Fatal(err)
		}
		want := e2eMetrics
		if traced {
			want = layerMetrics
		}
		if len(line.Metrics) != len(want) || !line.Correct || line.Attempted != 3 || line.Failed != 0 {
			t.Errorf("traced=%v: line has %d metrics, want %d: %+v", traced, len(line.Metrics), len(want), line)
		}
		for _, m := range want {
			if got, ok := line.Metrics[m.Name]; !ok || got.Unit != m.Unit || got.Value != 1.5 {
				t.Errorf("traced=%v: %s = %+v", traced, m.Name, got)
			}
		}
	}
}

// TestFailedRestart: when the store does not come back after the kill, the
// stack keeps a child that can be stopped, and the error quotes the log.
func TestFailedRestart(t *testing.T) {
	dir := t.TempDir()
	e := &env{bin: filepath.Join(dir, "bin"), outDir: dir}
	if err := os.Mkdir(e.bin, 0o755); err != nil {
		t.Fatal(err)
	}
	// A "storeserver" that says why and gives up.
	script := "#!/bin/sh\necho 'segstore: manifest is torn' >&2\nexit 3\n"
	if err := os.WriteFile(filepath.Join(e.bin, "storeserver"), []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	running := func() *child {
		c := &child{name: "store", cmd: exec.Command("sleep", "60"), port: 1, done: make(chan struct{})}
		if err := c.cmd.Start(); err != nil {
			t.Fatal(err)
		}
		go func() {
			c.waitErr = c.cmd.Wait()
			close(c.done)
		}()
		return c
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	st := &stack{e: e, workload: "ingest_bulk", dir: dir, store: running()}
	_, _, err := st.recoverAndVerify(ctx, nil)
	if err == nil || !strings.Contains(err.Error(), "manifest is torn") {
		t.Errorf("recoverAndVerify = %v, want the child's log in the error", err)
	}
	if st.store == nil {
		t.Fatal("the stack lost its store")
	}
	st.store.stop() // what runWorkload does next; must not panic

	st = &stack{e: e, workload: "query_point", dir: dir, store: running()}
	if err := st.restartCompacted(ctx); err == nil || st.store == nil {
		t.Errorf("restartCompacted = %v, store %v", err, st.store)
	}
	st.close()
	e.cleanup()
}

// opListBytes renders everything a seed decides.
func opListBytes(t *testing.T, seed int64) []byte {
	t.Helper()
	in, err := newInputs(seed)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Point, Range []queryOp
		Live         []liveOp
		Rules        [4][]byte
		FirstBatch   any
		Rows         int
	}
	doc.Point = takeOps(newQueryOps(in, 0, pointWindow, in.sessions[0].batches()), 200)
	doc.Range = takeOps(newQueryOps(in, 1, rangeWindow, in.sessions[0].batches()), 50)
	doc.Live = liveSchedule(3 * time.Second)
	doc.Rules = in.rules
	doc.FirstBatch = timelineBatch(in, 2, 80) // second replay of session 2, time-shifted
	doc.Rows = timelineTotal(in, 2, 81)
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestOpListsRepeatForASeed(t *testing.T) {
	a, b, other := opListBytes(t, 1), opListBytes(t, 1), opListBytes(t, 2)
	if !bytes.Equal(a, b) {
		t.Error("the same seed gave two different op lists")
	}
	if bytes.Equal(a, other) {
		t.Error("seeds 1 and 2 gave the same op list")
	}
}

func TestExpectedRows(t *testing.T) {
	in, err := newInputs(3)
	if err != nil {
		t.Fatal(err)
	}
	s := in.sessions[0]
	if got := s.rowsIn(sessionStart, sessionStart.Add(s.length), len(s.spans)); got != s.rows {
		t.Errorf("rows in the whole session = %d, want %d", got, s.rows)
	}
	// Ten samples a second on each of two devices.
	if got := s.rowsIn(sessionStart.Add(90*time.Second), sessionStart.Add(150*time.Second), len(s.spans)); got != 1200 {
		t.Errorf("rows in one minute = %d, want 1200", got)
	}
	// The count agrees with Segment.Slice, which is what the store releases.
	from, to := sessionStart.Add(1234*time.Millisecond), sessionStart.Add(77*time.Second+50*time.Millisecond)
	want := 0
	for _, p := range s.packets {
		if sl := p.Slice(from, to); sl != nil {
			want += sl.NumSamples()
		}
	}
	if got := s.rowsIn(from, to, len(s.spans)); got != want {
		t.Errorf("rowsIn = %d, Slice counts %d", got, want)
	}
	// A replayed session is the same rows one session length later.
	k := s.batches() + 3
	shifted := timelineRows(in, 0, k, sessionStart.Add(s.length), sessionStart.Add(s.length+time.Minute))
	if first := s.rowsIn(sessionStart, sessionStart.Add(time.Minute), 3*batchPackets); shifted != first {
		t.Errorf("second replay holds %d rows in its first minute, the first %d", shifted, first)
	}
	if got, want := timelineTotal(in, 0, k), s.rows+s.batchRows(0)+s.batchRows(1)+s.batchRows(2); got != want {
		t.Errorf("timelineTotal = %d, want %d", got, want)
	}
}

// TestSmoke runs a short window of every workload against in-process
// handlers over loopback: the same accounts, rules, op lists and answer
// checks as the real run, without child processes or a disk.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots in-process servers")
	}
	in, err := newInputs(1)
	if err != nil {
		t.Fatal(err)
	}
	restore, err := redirectStderr(filepath.Join(t.TempDir(), "servers.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer restore()
	for _, workload := range workloadNames {
		t.Run(workload, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			st := &stack{workload: workload}
			opts := datastore.Options{Name: "smoke"}
			if workload == "live_mixed" {
				brokerSrv := httptest.NewServer(httpapi.NewBrokerHandler(broker.New()))
				defer brokerSrv.Close()
				st.broker = &child{addr: brokerSrv.URL}
				bc := &httpapi.BrokerClient{BaseURL: brokerSrv.URL}
				opts.Sync, opts.Directory = bc, bc
			}
			storeSrv := httptest.NewUnstartedServer(nil)
			opts.Name = "http://" + storeSrv.Listener.Addr().String()
			svc, err := datastore.New(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			storeSrv.Config.Handler = httpapi.NewStoreHandler(svc)
			storeSrv.Start()
			defer storeSrv.Close()
			st.store = &child{addr: storeSrv.URL}

			if err := st.populate(ctx, in); err != nil {
				t.Fatal(err)
			}
			window := 300 * time.Millisecond
			switch workload {
			case "query_point", "query_range":
				if err := st.ingestFixture(ctx, in); err != nil {
					t.Fatal(err)
				}
			case "live_mixed":
				window = 1500 * time.Millisecond
			}
			m := measure(ctx, st, in, window, nil)
			if len(m.ops) == 0 {
				t.Fatalf("no op in %v", window)
			}
			for _, op := range m.ops {
				if !op.ok {
					t.Errorf("%s op failed: %+v", opKindNames[op.kind], op)
				}
				if op.eve && op.rows != 0 {
					t.Errorf("eve received %d rows", op.rows)
				}
			}
			if m.violations != 0 {
				t.Errorf("%d rows released while denied", m.violations)
			}
		})
	}
}
