package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"sensorsafe/internal/abstraction"
	"sensorsafe/internal/audit"
	"sensorsafe/internal/auth"
	"sensorsafe/internal/datastore"
	"sensorsafe/internal/geo"
	"sensorsafe/internal/httpapi"
	"sensorsafe/internal/obs/trace"
	"sensorsafe/internal/overload"
	"sensorsafe/internal/query"
	"sensorsafe/internal/rules"
	"sensorsafe/internal/segstore"
	"sensorsafe/internal/storage"
	"sensorsafe/internal/stream"
	"sensorsafe/internal/wavesegment"
)

// The layer ladder: a fixed sample of the workload's ops replayed inside
// the bench process at four entry depths, each depth against its own store
// built from the same inputs.
//
//	wire     httpapi.StoreClient over loopback TCP to an http.Server around
//	         the handler cmd/storeserver mounts
//	handler  that handler's ServeHTTP on an httptest recorder
//	service  datastore.Service UploadCtx / QueryCtx / SetRules
//	kernel   the public calls the service composes, on a segstore.Open store
//
// The self time of a depth is its span minus the next depth's span for the
// same op. The bench records the spans around its own calls; nothing is
// added inside the program.

const (
	ladderBatches   = 40  // upload batches per contributor: the first 34 min of each session
	ladderPoints    = 100 // point queries
	ladderRanges    = 12  // range queries
	ladderFlips     = 20  // rule flips (live_mixed)
	ladderStream    = 200 // publish/next pairs (live_mixed)
	ladderOverhead  = 60  // point queries timed with the program's tracing on and off
	ladderMicro     = 200 // calls per micro-timed kernel
	ladderAuditFull = 40  // Record calls timed on a full trail (each copies the trail)
)

var depthNames = [4]string{"wire", "handler", "service", "kernel"}

// rung is one depth's store instance.
type rung struct {
	svc     *datastore.Service
	handler http.Handler
	server  *http.Server
	client  *httpapi.StoreClient
	owners  []auth.User
	bob     auth.APIKey
}

func newRung(dir string, in *inputs, listen bool) (*rung, error) {
	// The options cmd/storeserver passes for its default flags.
	svc, err := datastore.New(datastore.Options{Name: "ladder", Dir: dir, CompactInterval: 30 * time.Second})
	if err != nil {
		return nil, err
	}
	r := &rung{svc: svc}
	r.handler = httpapi.NewStoreHandlerOverload(svc, overload.NewController(overload.StoreDefaults()))
	for c := 0; c < fixtureContributors; c++ {
		u, err := svc.RegisterContributor(contributorName(c))
		if err != nil {
			return nil, err
		}
		if ruleSetNames[c%4] == "fig4" {
			if err := svc.DefinePlace(u.Key, in.place.Label, in.place); err != nil {
				return nil, err
			}
		}
		if err := svc.SetRules(u.Key, in.rules[c%4]); err != nil {
			return nil, err
		}
		r.owners = append(r.owners, u)
	}
	bob, err := svc.RegisterConsumer("bob")
	if err != nil {
		return nil, err
	}
	r.bob = bob.Key
	if listen {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		// cmd/storeserver's timeouts.
		r.server = &http.Server{Handler: r.handler, ReadHeaderTimeout: 10 * time.Second, ReadTimeout: 2 * time.Minute, IdleTimeout: 2 * time.Minute}
		go func() { _ = r.server.Serve(ln) }() // returns ErrServerClosed at close
		r.client, _ = newStoreClient("http://" + ln.Addr().String())
	}
	return r, nil
}

func (r *rung) close() {
	if r.server != nil {
		_ = r.server.Close() // in-process listener; nothing to flush
	}
	_ = r.svc.Close() // scratch directory, removed right after
}

// kernel is the deepest rung: the layer calls themselves.
type kernel struct {
	store   *segstore.Store
	dir     string
	hub     *stream.Hub
	trail   *audit.Trail
	rules   *datastore.Service // the service rung's, for the compiled deciders
	packets int                // packets optimized
	segs    int                // segments enforced
	rels    int                // releases produced
}

// ladder holds the spans and durations of one ladder run.
type ladder struct {
	tr  *tracer
	dur map[string][]time.Duration // span name -> durations
}

func (l *ladder) timed(name string, op, parent int, f func()) {
	i := l.tr.begin(name, op, parent)
	f()
	l.dur[name] = append(l.dur[name], l.tr.end(i))
}

func (l *ladder) medianMS(name string) float64 { return median(durationsMS(l.dur[name])) }
func (l *ladder) medianUS(name string) float64 { return 1000 * l.medianMS(name) }

// Wire shapes of the store API, as internal/httpapi defines them.
type uploadBody struct {
	Key      auth.APIKey            `json:"key"`
	Segments []*wavesegment.Segment `json:"segments"`
}
type queryBody struct {
	Key   auth.APIKey  `json:"key"`
	Query *query.Query `json:"query"`
}
type rulesBody struct {
	Key   auth.APIKey     `json:"key"`
	Rules json.RawMessage `json:"rules"`
}
type queryReply struct {
	Releases []*abstraction.Release `json:"releases"`
}

// serve posts one pre-encoded body to the handler rung and returns the
// response body.
func (r *rung) serve(path string, body []byte) ([]byte, error) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	r.handler.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("bench: ladder handler %s: HTTP %d: %s", path, rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	return rec.Body.Bytes(), nil
}

// runLadder replays the workload's sample at the four depths and fills in
// the ladder-sourced per-layer metrics of res.
func runLadder(ctx context.Context, e *env, in *inputs, workload string, tr *tracer, res *result) error {
	restore, err := redirectStderr(filepath.Join(e.outDir, workload+".ladder.log"))
	if err != nil {
		return err
	}
	defer restore()

	l := &ladder{tr: tr, dur: map[string][]time.Duration{}}
	base := filepath.Join(e.work, "ladder-"+workload)
	defer os.RemoveAll(base)
	var rungs [3]*rung
	for i := range rungs {
		r, err := newRung(filepath.Join(base, depthNames[i]), in, i == 0)
		if err != nil {
			return err
		}
		defer r.close()
		rungs[i] = r
	}
	k := &kernel{dir: filepath.Join(base, "kernel"), rules: rungs[2].svc, trail: audit.NewTrail(0)}
	if k.store, err = segstore.Open(segstore.Options{Dir: k.dir, CompactInterval: 30 * time.Second}); err != nil {
		return err
	}
	defer func() { _ = k.store.Close() }() // scratch directory
	k.hub = stream.New(stream.Options{Rules: rungs[2].svc})
	var sub stream.SubInfo
	if workload == "live_mixed" {
		if sub, err = k.hub.Subscribe("bob", contributorName(1), nil); err != nil {
			return err
		}
	}

	// Uploads: every depth ingests the same batches, which also builds the
	// store the reads below run against.
	op := 0
	for b := 0; b < ladderBatches; b++ {
		for c := 0; c < fixtureContributors; c++ {
			op++
			segs := in.sessions[c].batch(b, 0)
			if err := l.upload(ctx, op, rungs, k, c, segs); err != nil {
				return err
			}
		}
	}

	// Reads.
	var ops []queryOp
	switch workload {
	case "query_point", "live_mixed":
		ops = takeOps(newQueryOps(in, 0, pointWindow, ladderBatches), ladderPoints)
	case "query_range":
		ops = takeOps(newQueryOps(in, 0, rangeWindow, ladderBatches), ladderRanges)
	}
	for _, qo := range ops {
		op++
		if err := l.query(ctx, op, rungs, k, qo); err != nil {
			return err
		}
	}
	if workload == "live_mixed" {
		for i := 0; i < ladderFlips; i++ {
			op++
			if err := l.flip(ctx, op, rungs, i%2 == 1); err != nil {
				return err
			}
		}
		if err := l.streamPairs(op, k, sub, in); err != nil {
			return err
		}
	}

	// Tracing cost of the program's own spans, at the service depth.
	// Each query runs once with the program's spans on and once with them
	// off, in alternating order, so both sides time the same work.
	overheadOps := takeOps(newQueryOps(in, 1, pointWindow, ladderBatches), ladderOverhead)
	var on, off []float64
	for i, qo := range overheadOps {
		for _, enabled := range [2]bool{i%2 == 0, i%2 != 0} {
			trace.SetEnabled(enabled)
			begin := time.Now()
			_, err := rungs[2].svc.QueryCtx(ctx, rungs[2].bob, qo.query())
			took := ms(time.Since(begin))
			trace.SetEnabled(true)
			if err != nil {
				return err
			}
			if enabled {
				on = append(on, took)
			} else {
				off = append(off, took)
			}
		}
	}
	res.set("obs.trace_overhead_ratio", median(on)/median(off), len(overheadOps))

	if err := l.micro(ctx, workload, rungs[2], k, in, res); err != nil {
		return err
	}
	l.report(workload, k, res)
	return nil
}

func takeOps(q *queryOps, n int) []queryOp {
	out := make([]queryOp, n)
	for i := range out {
		out[i] = q.next()
	}
	return out
}

func (l *ladder) upload(ctx context.Context, op int, rungs [3]*rung, k *kernel, c int, segs []*wavesegment.Segment) error {
	var err error
	l.timed("wire.upload", op, -1, func() { _, err = rungs[0].client.UploadCtx(ctx, rungs[0].owners[c].Key, segs) })
	if err != nil {
		return err
	}
	body, err := json.Marshal(uploadBody{rungs[1].owners[c].Key, segs})
	if err != nil {
		return err
	}
	l.timed("handler.upload", op, -1, func() { _, err = rungs[1].serve("/api/upload", body) })
	if err != nil {
		return err
	}
	// The service fills in and keeps the segments it is given; hand it
	// copies, as the handler's JSON decoding does.
	own := make([]*wavesegment.Segment, len(segs))
	for i, s := range segs {
		own[i] = s.Clone()
	}
	l.timed("service.upload", op, -1, func() { _, err = rungs[2].svc.UploadCtx(ctx, rungs[2].owners[c].Key, own) })
	if err != nil {
		return err
	}

	for i, s := range segs {
		own[i] = s.Clone()
		own[i].Contributor = contributorName(c)
	}
	root := l.tr.begin("kernel.upload", op, -1)
	groups := map[string][]*wavesegment.Segment{}
	var order []string
	for _, cp := range own {
		sig := strings.Join(cp.Channels, "\x00")
		if _, seen := groups[sig]; !seen {
			order = append(order, sig)
		}
		groups[sig] = append(groups[sig], cp)
	}
	for _, sig := range order {
		var merged []*wavesegment.Segment
		l.timed("wavesegment.OptimizeAll", op, root, func() {
			merged, err = wavesegment.OptimizeAll(groups[sig], wavesegment.DefaultMaxSamples)
		})
		if err != nil {
			return err
		}
		k.packets += len(groups[sig])
		for _, seg := range merged {
			l.timed("segstore.Put", op, root, func() { _, err = k.store.Put(seg) })
			if err != nil {
				return err
			}
			l.timed("stream.Publish", op, root, func() { k.hub.Publish(seg.Contributor, seg) })
		}
	}
	l.dur["kernel.upload"] = append(l.dur["kernel.upload"], l.tr.end(root))
	return nil
}

func (l *ladder) query(ctx context.Context, op int, rungs [3]*rung, k *kernel, qo queryOp) error {
	if qo.Consumer != "bob" {
		return nil // the ladder attributes bob's reads; eve's are answered before any layer does work
	}
	q := qo.query()
	var rels []*abstraction.Release
	var err error
	check := func(depth string, rows int) error {
		if rows > qo.Max || (qo.Want >= 0 && rows != qo.Want) {
			return fmt.Errorf("bench: ladder %s depth released %d rows for %s, want %d (max %d)", depth, rows, q, qo.Want, qo.Max)
		}
		return nil
	}
	l.timed("wire.query", op, -1, func() { rels, err = rungs[0].client.QueryCtx(ctx, rungs[0].bob, q) })
	if err != nil {
		return err
	}
	if err := check("wire", releasedRows(rels)); err != nil {
		return err
	}
	body, err := json.Marshal(queryBody{rungs[1].bob, q})
	if err != nil {
		return err
	}
	var reply []byte
	l.timed("handler.query", op, -1, func() { reply, err = rungs[1].serve("/api/query", body) })
	if err != nil {
		return err
	}
	var decoded queryReply
	if err := json.Unmarshal(reply, &decoded); err != nil {
		return err
	}
	if err := check("handler", releasedRows(decoded.Releases)); err != nil {
		return err
	}
	l.timed("service.query", op, -1, func() { rels, err = rungs[2].svc.QueryCtx(ctx, rungs[2].bob, q) })
	if err != nil {
		return err
	}
	if err := check("service", releasedRows(rels)); err != nil {
		return err
	}

	root := l.tr.begin("kernel.query", op, -1)
	rows := 0
	var results []storage.Result
	l.timed("segstore.ScanRefs", op, root, func() { results, err = k.store.ScanRefs(q.Storage()) })
	if err != nil {
		return err
	}
	for _, r := range results {
		var seg *wavesegment.Segment
		l.timed("wavesegment.Slice", op, root, func() { seg = r.Segment.Slice(q.From, q.To) })
		if seg == nil {
			continue
		}
		decider, _, err := k.rules.StreamEngine(seg.Contributor)
		if err != nil {
			return err
		}
		if decider == nil {
			continue
		}
		var out []*abstraction.Release
		l.timed("abstraction.EnforceExplained", op, root, func() {
			out, _, err = abstraction.EnforceExplained(decider, "bob", nil, seg, geo.GridGeocoder{})
		})
		if err != nil {
			return err
		}
		k.segs++
		k.rels += len(out)
		rows += releasedRows(out)
		l.timed("audit.Record", op, root, func() {
			for _, rel := range out {
				k.trail.Record(audit.Event{Contributor: seg.Contributor, Consumer: "bob", Query: q.String(),
					SpanStart: rel.Start, SpanEnd: rel.End, Outcome: audit.OutcomeRaw})
			}
			if len(out) == 0 {
				k.trail.Record(audit.Event{Contributor: seg.Contributor, Consumer: "bob", Query: q.String(),
					SpanStart: seg.StartTime(), SpanEnd: seg.EndTime(), Outcome: audit.OutcomeWithheld})
			}
		})
	}
	l.dur["kernel.query"] = append(l.dur["kernel.query"], l.tr.end(root))
	return check("kernel", rows)
}

// flip replays one rule mutation on contributor 0 at the three depths that
// have one; the kernel depth is the compile it triggers.
func (l *ladder) flip(ctx context.Context, op int, rungs [3]*rung, allow bool) error {
	doc := bobFlip(allow)
	var err error
	l.timed("wire.set_rules", op, -1, func() { err = rungs[0].client.SetRulesCtx(ctx, rungs[0].owners[0].Key, doc) })
	if err != nil {
		return err
	}
	body, err := json.Marshal(rulesBody{rungs[1].owners[0].Key, doc})
	if err != nil {
		return err
	}
	l.timed("handler.set_rules", op, -1, func() { _, err = rungs[1].serve("/api/rules/set", body) })
	if err != nil {
		return err
	}
	l.timed("service.set_rules", op, -1, func() { err = rungs[2].svc.SetRules(rungs[2].owners[0].Key, doc) })
	return err
}

// streamPairs publishes segments of contributor 1 to the kernel hub and
// collects each through bob's subscription.
func (l *ladder) streamPairs(op int, k *kernel, sub stream.SubInfo, in *inputs) error {
	cursor := sub.Cursor
	s := in.sessions[1]
	for i := 0; i < ladderStream; i++ {
		op++
		seg := s.packets[i%len(s.packets)].Clone()
		seg.Contributor = contributorName(1)
		l.timed("stream.Publish.sub", op, -1, func() { k.hub.Publish(seg.Contributor, seg) })
		var batch stream.Batch
		var err error
		l.timed("stream.Next", op, -1, func() { batch, err = k.hub.Next("bob", sub.ID, cursor, 0) })
		if err != nil {
			return err
		}
		cursor = batch.Cursor
	}
	return nil
}

// micro times the kernels that run inside other calls during the replay,
// and the codecs, on their own.
func (l *ladder) micro(ctx context.Context, workload string, svcRung *rung, k *kernel, in *inputs, res *result) error {
	// ruleindex: the compiled decider of the fig4 contributor, asked the way
	// abstraction.EnforceExplained asks it.
	decider, _, err := svcRung.svc.StreamEngine(contributorName(1))
	if err != nil {
		return err
	}
	s := in.sessions[1]
	for i := 0; i < ladderMicro; i++ {
		p := s.packets[i%len(s.packets)]
		req := &rules.Request{Consumer: "bob", At: p.Start, Location: p.Location, ActiveContexts: p.ContextsAt(p.Start)}
		l.timed("ruleindex.Decide", 0, -1, func() { _ = decider.Decide(req) })
	}
	res.set("ruleindex.decide_us", l.medianUS("ruleindex.Decide"), ladderMicro)

	// overload: one admission and release on the store's default controller.
	ctrl := overload.NewController(overload.StoreDefaults())
	class := overload.ClassQuery
	if workload == "ingest_bulk" {
		class = overload.ClassIngest
	}
	for i := 0; i < ladderMicro; i++ {
		l.timed("overload.Admit", 0, -1, func() {
			if release, rej := ctrl.Admit(ctx, class, "127.0.0.1"); rej == nil {
				release()
			}
		})
	}
	res.set("overload.admit_us", l.medianUS("overload.Admit"), ladderMicro)

	// audit: Record on a trail as full as the workload's store keeps it.
	trail, n := audit.NewTrail(0), ladderMicro
	if workload == "query_point" {
		n = ladderAuditFull
		for i := 0; i < audit.DefaultLimit; i++ {
			trail.Record(audit.Event{Contributor: contributorName(i % 4), Consumer: "carol", Outcome: audit.OutcomeAbstracted})
		}
	}
	for i := 0; i < n; i++ {
		l.timed("audit.Record.occupancy", 0, -1, func() {
			trail.Record(audit.Event{Contributor: contributorName(0), Consumer: "bob", Outcome: audit.OutcomeRaw})
		})
	}
	res.set("audit.record_us", l.medianUS("audit.Record.occupancy"), n)

	// wavesegment codecs, on the segments the store keeps for the first
	// batches of session 0: the JSON the wire carries today, and the binary
	// form as the reference for a negotiated wire.
	var stored []*wavesegment.Segment
	for b := 0; b < 8; b++ {
		for _, sig := range [][]string{{wavesegment.ChannelECG}, {wavesegment.ChannelAccelX}} {
			var group []*wavesegment.Segment
			for _, p := range in.sessions[0].batch(b, 0) {
				if p.HasChannel(sig[0]) {
					group = append(group, p)
				}
			}
			merged, err := wavesegment.OptimizeAll(group, wavesegment.DefaultMaxSamples)
			if err != nil {
				return err
			}
			stored = append(stored, merged...)
		}
	}
	rows, binBytes := 0, 0
	var enc, dec, bin time.Duration
	for _, seg := range stored {
		rows += seg.NumSamples()
		begin := time.Now()
		data, err := wavesegment.MarshalJSONSegment(seg)
		enc += time.Since(begin)
		if err != nil {
			return err
		}
		begin = time.Now()
		_, err = wavesegment.UnmarshalJSONSegment(data)
		dec += time.Since(begin)
		if err != nil {
			return err
		}
		begin = time.Now()
		blob, err := wavesegment.MarshalBinary(seg)
		bin += time.Since(begin)
		if err != nil {
			return err
		}
		binBytes += len(blob)
	}
	res.set("wavesegment.json_encode_ns_per_sample", float64(enc.Nanoseconds())/float64(rows), rows)
	res.set("wavesegment.json_decode_ns_per_sample", float64(dec.Nanoseconds())/float64(rows), rows)
	res.set("wavesegment.binary_encode_ns_per_sample", float64(bin.Nanoseconds())/float64(rows), rows)
	res.set("wavesegment.binary_bytes_per_sample", float64(binBytes)/float64(rows), rows)

	// segstore: reopening the kernel store on its directory.
	if err := k.store.Close(); err != nil {
		return err
	}
	for i := 0; i < 3; i++ {
		l.timed("segstore.Open", 0, -1, func() {
			k.store, err = segstore.Open(segstore.Options{Dir: k.dir, CompactInterval: 30 * time.Second})
		})
		if err != nil {
			return err
		}
		if i < 2 {
			if err := k.store.Close(); err != nil {
				return err
			}
		}
	}
	res.set("segstore.open_ms", l.medianMS("segstore.Open"), 3)
	return nil
}

// report turns the replay's spans into the ladder-sourced metrics. The
// ladder of the workload's own op kind (upload for ingest_bulk, query for
// the others) gives the httpapi numbers.
func (l *ladder) report(workload string, k *kernel, res *result) {
	kind := "query"
	if workload == "ingest_bulk" {
		kind = "upload"
	}
	n := len(l.dur["wire."+kind])
	wire, handler := l.medianMS("wire."+kind), l.medianMS("handler."+kind)
	res.set("httpapi.wire_self_ms", wire-handler, n)
	res.set("httpapi.handler_self_ms", handler-l.medianMS("service."+kind), n)
	res.set("httpapi.share", (wire-l.medianMS("service."+kind))/wire, n)

	res.set("datastore.upload_self_ms", l.medianMS("service.upload")-l.medianMS("kernel.upload"), len(l.dur["service.upload"]))
	res.set("datastore.query_self_ms", l.medianMS("service.query")-l.medianMS("kernel.query"), len(l.dur["service.query"]))
	res.set("datastore.set_rules_ms", l.medianMS("service.set_rules"), len(l.dur["service.set_rules"]))

	var optimize time.Duration
	for _, d := range l.dur["wavesegment.OptimizeAll"] {
		optimize += d
	}
	res.set("wavesegment.optimize_us_per_packet", float64(optimize.Microseconds())/float64(max(k.packets, 1)), k.packets)
	res.set("wavesegment.slice_us", l.medianUS("wavesegment.Slice"), len(l.dur["wavesegment.Slice"]))
	res.set("segstore.put_us", l.medianUS("segstore.Put"), len(l.dur["segstore.Put"]))
	res.set("segstore.scan_ms", l.medianMS("segstore.ScanRefs"), len(l.dur["segstore.ScanRefs"]))
	res.set("abstraction.enforce_us_per_segment", l.medianUS("abstraction.EnforceExplained"), k.segs)
	res.set("abstraction.releases_per_segment", float64(k.rels)/float64(max(k.segs, 1)), k.segs)
	publish := "stream.Publish"
	if workload == "live_mixed" {
		publish = "stream.Publish.sub" // with a subscriber to fan out to
	}
	res.set("stream.publish_us", l.medianUS(publish), len(l.dur[publish]))
	res.set("stream.next_ms", l.medianMS("stream.Next"), len(l.dur["stream.Next"]))

	// The ladder itself, for the reader: one line per op kind.
	for _, kind := range []string{"upload", "query", "set_rules"} {
		if len(l.dur["wire."+kind]) == 0 {
			continue
		}
		line := fmt.Sprintf("ladder %-9s n=%d  span ms:", kind, len(l.dur["wire."+kind]))
		for _, d := range depthNames {
			if len(l.dur[d+"."+kind]) > 0 {
				line += fmt.Sprintf(" %s=%.3f", d, l.medianMS(d+"."+kind))
			}
		}
		res.Notes = append(res.Notes, line)
	}
}
