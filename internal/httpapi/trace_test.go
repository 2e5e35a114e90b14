package httpapi

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sensorsafe/internal/audit"
	"sensorsafe/internal/auth"
	"sensorsafe/internal/broker"
	"sensorsafe/internal/datastore"
	"sensorsafe/internal/federation"
	"sensorsafe/internal/obs/trace"
	"sensorsafe/internal/phone"
	"sensorsafe/internal/rules"
	"sensorsafe/internal/sensors"
	"sensorsafe/internal/stream"
	"sensorsafe/internal/wavesegment"
)

// tracedMember is one contributor in a traced federated deployment.
type tracedMember struct {
	rules string
	// delay slows every /api/query on this member's store (for forcing
	// hedges); zero serves at full speed.
	delay time.Duration
}

type tracedStore struct {
	svc      *datastore.Service
	client   *StoreClient
	url      string
	ownerKey auth.APIKey
}

// deployTraced spins up a broker plus one store per member over real HTTP,
// each holding one ECG segment, and returns handles that keep the
// server-side services reachable (for audit-trail assertions).
func deployTraced(t *testing.T, members map[string]tracedMember) (*BrokerClient, map[string]*tracedStore) {
	t.Helper()
	ctx := context.Background()
	// A fresh collector per test: earlier tests in this package (chaos
	// suites especially) fill the process default with error/slow traces,
	// which the retention policy keeps at the expense of new boring ones.
	prev := trace.Default()
	trace.SetDefault(trace.NewCollector(0, 0, 0))
	t.Cleanup(func() { trace.SetDefault(prev) })
	bsvc := broker.New()
	brokerServer := httptest.NewServer(NewBrokerHandler(bsvc))
	t.Cleanup(brokerServer.Close)
	bc := &BrokerClient{BaseURL: brokerServer.URL}

	stores := make(map[string]*tracedStore)
	for name, m := range members {
		var storeURL string
		svc, err := datastore.New(datastore.Options{Sync: bc, Directory: &lazyDirectory{bc: bc, addr: &storeURL}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { svc.Close() })
		inner := NewStoreHandler(svc)
		delay := m.delay
		storeServer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if delay > 0 && r.URL.Path == "/api/query" {
				time.Sleep(delay)
			}
			inner.ServeHTTP(w, r)
		}))
		t.Cleanup(storeServer.Close)
		storeURL = storeServer.URL
		sc := &StoreClient{BaseURL: storeServer.URL}

		owner, err := sc.RegisterCtx(ctx, name, "contributor")
		if err != nil {
			t.Fatal(err)
		}
		if err := sc.SetRulesCtx(ctx, owner.Key, []byte(m.rules)); err != nil {
			t.Fatal(err)
		}
		seg := &wavesegment.Segment{
			Contributor: name, Start: t0, Interval: time.Second,
			Location: home, Channels: []string{wavesegment.ChannelECG},
			Values: [][]float64{{1}, {2}},
		}
		if _, err := sc.UploadCtx(ctx, owner.Key, []*wavesegment.Segment{seg}); err != nil {
			t.Fatal(err)
		}
		stores[name] = &tracedStore{svc: svc, client: sc, url: storeServer.URL, ownerKey: owner.Key}
	}
	return bc, stores
}

// spansByName indexes one collected trace.
func spansByName(spans []*trace.SpanData) map[string][]*trace.SpanData {
	out := make(map[string][]*trace.SpanData)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], s)
	}
	return out
}

// hasAncestor walks the parent chain of s within spans looking for a span
// named want.
func hasAncestor(spans []*trace.SpanData, s *trace.SpanData, want string) bool {
	byID := make(map[string]*trace.SpanData, len(spans))
	for _, sp := range spans {
		byID[sp.SpanID] = sp
	}
	for cur := s; cur != nil; cur = byID[cur.ParentID] {
		if cur.Name == want && cur != s {
			return true
		}
		if cur.ParentID == "" {
			break
		}
	}
	return false
}

// collectTrace polls the default collector until cond holds for the trace
// or the deadline passes (spans from losing hedge attempts and parallel
// goroutines may end after the query returns).
func collectTrace(t *testing.T, col *trace.Collector, id string, cond func([]*trace.SpanData) bool) []*trace.SpanData {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		spans := col.Trace(id)
		if cond(spans) || time.Now().After(deadline) {
			return spans
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTraceSpansFederatedQuery is the end-to-end tracing acceptance test:
// one trace ID must cover the consumer's root span, the federation fan-out,
// the broker's provisioning of each store (broker.connect), and every
// store's rule evaluation with decision provenance — all linked into one
// tree by exact parent IDs, across real HTTP hops.
func TestTraceSpansFederatedQuery(t *testing.T) {
	ctx := context.Background()
	bc, stores := deployTraced(t, map[string]tracedMember{
		"alice": {rules: `[{"ID":"share-ecg","Action":"Allow"}]`},
		"bea":   {rules: `[{"ID":"share-ecg","Action":"Allow"}]`},
		"cara":  {rules: `[{"ID":"lockdown","Action":"Deny"}]`},
	})
	bob, err := bc.RegisterConsumerCtx(ctx, "Bob")
	if err != nil {
		t.Fatal(err)
	}
	eng := NewFederation(bc, bob.Key, federation.Options{PerStoreTimeout: 5 * time.Second})

	ctx, root := trace.Start(ctx, "test.cohort")
	res, err := eng.CohortQuery(ctx, &federation.Request{
		Cohort: federation.Cohort{Contributors: []string{"alice", "bea", "cara"}},
	})
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial || len(res.Releases) != 2 {
		t.Fatalf("got %d releases (partial=%v), want 2 from alice+bea", len(res.Releases), res.Partial)
	}

	tid := root.TraceIDString()
	spans := collectTrace(t, trace.Default(), tid, func(spans []*trace.SpanData) bool {
		n := spansByName(spans)
		return len(n["broker.connect"]) >= 3 && len(n["datastore.rule_eval"]) >= 3
	})
	byName := spansByName(spans)

	// Every span in the collected trace carries the root's trace ID.
	for _, s := range spans {
		if s.TraceID != tid {
			t.Fatalf("span %s has trace %s, want %s", s.Name, s.TraceID, tid)
		}
	}

	// Exact tree links: root → cohort_query → {resolve, 3× store_query}.
	cq := byName["federation.cohort_query"]
	if len(cq) != 1 || cq[0].ParentID != rootSpanID(root) {
		t.Fatalf("federation.cohort_query spans = %d, parent links to root = %v", len(cq), cq)
	}
	if rs := byName["federation.resolve"]; len(rs) != 1 || rs[0].ParentID != cq[0].SpanID {
		t.Fatalf("federation.resolve = %+v, want one child of cohort_query", rs)
	}
	sq := byName["federation.store_query"]
	if len(sq) != 3 {
		t.Fatalf("federation.store_query spans = %d, want 3 (one per cohort member)", len(sq))
	}
	fanned := map[string]bool{}
	for _, s := range sq {
		if s.ParentID != cq[0].SpanID {
			t.Errorf("store_query %v not a direct child of cohort_query", s.Attrs)
		}
		if c, _ := s.Attrs["contributor"].(string); c != "" {
			fanned[c] = true
		}
	}
	if len(fanned) != 3 {
		t.Errorf("store_query contributors = %v, want alice/bea/cara", fanned)
	}

	// Broker resolution: each store's provisioning ran under its fan-out
	// leg — broker.connect is server-side on the broker, joined over HTTP.
	bcn := byName["broker.connect"]
	if len(bcn) != 3 {
		t.Fatalf("broker.connect spans = %d, want 3", len(bcn))
	}
	for _, s := range bcn {
		if !hasAncestor(spans, s, "federation.store_query") {
			t.Errorf("broker.connect %v does not descend from a store_query span", s.Attrs)
		}
	}

	// Decision provenance: every store's rule_eval span names the matched
	// rule IDs, the rule version, and the decision class.
	evals := byName["datastore.rule_eval"]
	if len(evals) < 3 {
		t.Fatalf("datastore.rule_eval spans = %d, want one per store", len(evals))
	}
	sawAllow, sawDeny := false, false
	for _, s := range evals {
		if !hasAncestor(spans, s, "federation.store_query") {
			t.Errorf("rule_eval %v does not descend from a store_query span", s.Attrs)
		}
		if _, ok := s.Attrs["rule_version"].(int64); !ok {
			t.Errorf("rule_eval missing rule_version: %v", s.Attrs)
		}
		switch s.Attrs["decision"] {
		case "allow":
			sawAllow = true
			if rules, _ := s.Attrs["rules_matched"].(string); !strings.Contains(rules, "share-ecg") {
				t.Errorf("allow rule_eval rules_matched = %q, want share-ecg", rules)
			}
		case "deny":
			// Withheld spans release nothing, so no per-release rule IDs —
			// the deny class itself is the provenance.
			sawDeny = true
		}
	}
	if !sawAllow || !sawDeny {
		t.Errorf("rule_eval decisions: allow=%v deny=%v, want both", sawAllow, sawDeny)
	}

	// Audit cross-reference: the contributors' trails record the trace ID.
	for name, st := range stores {
		evs, err := st.svc.Audit(st.ownerKey, audit.Filter{})
		if err != nil {
			t.Fatal(err)
		}
		if len(evs) == 0 {
			t.Errorf("%s: no audit events", name)
			continue
		}
		for _, ev := range evs {
			if ev.TraceID != tid {
				t.Errorf("%s: audit event trace %q, want %q", name, ev.TraceID, tid)
			}
		}
	}

	// The /debug/traces endpoint serves the same trace as JSON.
	resp, err := http.Get(stores["alice"].url + "/debug/traces?id=" + tid)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces?id= status %d", resp.StatusCode)
	}
	var page struct {
		TraceID string            `json:"traceId"`
		Spans   []*trace.SpanData `json:"spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	if page.TraceID != tid || len(page.Spans) != len(spans) {
		t.Errorf("/debug/traces served %d spans for %s, collector has %d", len(page.Spans), page.TraceID, len(spans))
	}
}

// rootSpanID is a live span's own ID in collected-span form.
func rootSpanID(s *trace.Span) string {
	return s.Context().Span.String()
}

// TestTraceHedgeSpanLabeled forces a hedged store fetch and asserts the
// duplicate attempt shows up as its own federation.hedge span under the
// store's fan-out leg.
func TestTraceHedgeSpanLabeled(t *testing.T) {
	ctx := context.Background()
	bc, _ := deployTraced(t, map[string]tracedMember{
		"dana": {rules: `[{"ID":"share-ecg","Action":"Allow"}]`, delay: 80 * time.Millisecond},
	})
	bob, err := bc.RegisterConsumerCtx(ctx, "Bob")
	if err != nil {
		t.Fatal(err)
	}
	eng := NewFederation(bc, bob.Key, federation.Options{
		PerStoreTimeout: 5 * time.Second,
		HedgeAfter:      10 * time.Millisecond,
	})

	ctx, root := trace.Start(ctx, "test.hedge")
	res, err := eng.CohortQuery(ctx, &federation.Request{
		Cohort: federation.Cohort{Contributors: []string{"dana"}},
	})
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 1 || !res.Reports[0].Hedged {
		t.Fatalf("reports = %+v, want dana hedged", res.Reports)
	}

	tid := root.TraceIDString()
	spans := collectTrace(t, trace.Default(), tid, func(spans []*trace.SpanData) bool {
		return len(spansByName(spans)["federation.hedge"]) >= 1
	})
	byName := spansByName(spans)
	hedges := byName["federation.hedge"]
	if len(hedges) == 0 {
		t.Fatalf("no federation.hedge span in trace; have %v", names(byName))
	}
	for _, h := range hedges {
		if !hasAncestor(spans, h, "federation.store_query") {
			t.Errorf("hedge span not under store_query")
		}
	}
	sqs := byName["federation.store_query"]
	if len(sqs) != 1 {
		t.Fatalf("store_query spans = %d, want 1", len(sqs))
	}
	if hedged, _ := sqs[0].Attrs["hedged"].(bool); !hedged {
		t.Errorf("store_query attrs = %v, want hedged=true", sqs[0].Attrs)
	}
}

func names(byName map[string][]*trace.SpanData) []string {
	out := make([]string, 0, len(byName))
	for n := range byName {
		out = append(out, n)
	}
	return out
}

// storeWithCollector serves a fresh in-memory store whose server-side spans
// go to a collector of their own, as they would in a separate process.
func storeWithCollector(t *testing.T) (*datastore.Service, *StoreClient, *trace.Collector) {
	t.Helper()
	svc, err := datastore.New(datastore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	col := trace.NewCollector(0, 0, 0)
	inner := NewStoreHandler(svc)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inner.ServeHTTP(w, r.WithContext(trace.WithCollector(r.Context(), col)))
	}))
	t.Cleanup(srv.Close)
	return svc, &StoreClient{BaseURL: srv.URL}, col
}

// serverRoutes counts the http.server spans per route.
func serverRoutes(spans []*trace.SpanData) map[string]int {
	n := make(map[string]int)
	for _, s := range spans {
		if s.Name == "http.server" {
			route, _ := s.Attrs["route"].(string)
			n[route]++
		}
	}
	return n
}

// TestPhoneSessionIsOneTrace runs a rule-aware phone with one batch left
// in its outbox from an earlier session: the rule download, the outbox
// drain and the fresh upload are all hops of the one session, so the
// store's server spans for them all carry the session's trace ID.
func TestPhoneSessionIsOneTrace(t *testing.T) {
	ctx := context.Background()
	_, sc, col := storeWithCollector(t)
	alice, err := sc.RegisterCtx(ctx, "alice", "contributor")
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.SetRulesCtx(ctx, alice.Key, []byte(`[{"Action":"Allow"}]`)); err != nil {
		t.Fatal(err)
	}
	outbox := &phone.Outbox{Dir: t.TempDir()}
	if err := outbox.Spill([]*wavesegment.Segment{streamPacket(t0.Add(-time.Hour), 8)}); err != nil {
		t.Fatal(err)
	}
	p := &phone.Phone{Contributor: "alice", Key: alice.Key, Store: sc,
		RuleAware: true, Outbox: outbox, BatchPackets: 1 << 20}

	ctx, root := trace.Start(ctx, "test.phone_session")
	rep, err := p.RunCtx(ctx, &sensors.Scenario{Start: t0, Origin: home, Seed: 3,
		Phases: []sensors.Phase{{Duration: time.Minute, Activity: rules.CtxStill}}})
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if rep.BatchesRecovered != 1 || rep.PacketsUploaded == 0 {
		t.Fatalf("report = %+v, want the spilled batch recovered and fresh packets uploaded", rep)
	}

	want := map[string]int{"/api/rules/get": 1, "/api/places/list": 1, "/api/upload": 2}
	spans := collectTrace(t, col, root.TraceIDString(), func(spans []*trace.SpanData) bool {
		return serverRoutes(spans)["/api/upload"] == want["/api/upload"]
	})
	got := serverRoutes(spans)
	for route, n := range want {
		if got[route] != n {
			t.Errorf("store spans in the session's trace: %s × %d, want %d (all: %v)", route, got[route], n, got)
		}
	}
}

// TestStreamNextJoinsCallerTrace: a long-poll is a hop of the caller's
// request like any other client call, so the store's server span for
// /api/stream/next lands in the caller's trace, with the hub delivery as
// its child.
func TestStreamNextJoinsCallerTrace(t *testing.T) {
	ctx := context.Background()
	_, sc, col := storeWithCollector(t)
	alice, err := sc.RegisterCtx(ctx, "alice", "contributor")
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.SetRulesCtx(ctx, alice.Key, []byte(`[{"Action":"Allow"}]`)); err != nil {
		t.Fatal(err)
	}
	bob, err := sc.RegisterCtx(ctx, "Bob", "consumer")
	if err != nil {
		t.Fatal(err)
	}
	info, err := sc.SubscribeCtx(ctx, bob.Key, "alice", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.UploadCtx(ctx, alice.Key, []*wavesegment.Segment{streamPacket(t0, 8)}); err != nil {
		t.Fatal(err)
	}

	ctx, root := trace.Start(ctx, "test.next")
	batch, err := sc.NextCtx(ctx, bob.Key, info.ID, info.Cursor, time.Second)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Events) == 0 || batch.Events[0].Kind != stream.KindData {
		t.Fatalf("batch = %+v, want the uploaded packet", batch.Events)
	}

	spans := collectTrace(t, col, root.TraceIDString(), func(spans []*trace.SpanData) bool {
		return serverRoutes(spans)["/api/stream/next"] > 0
	})
	if got := serverRoutes(spans); got["/api/stream/next"] != 1 {
		t.Fatalf("store spans in the caller's trace = %v, want one /api/stream/next", got)
	}
	var server *trace.SpanData
	for _, s := range spans {
		if s.Name == "http.server" && s.Attrs["route"] == "/api/stream/next" {
			server = s
		}
	}
	for _, s := range spans {
		if s.Name == "stream.deliver" {
			if s.ParentID != server.SpanID {
				t.Fatalf("stream.deliver parent = %s, want the /api/stream/next server span %s", s.ParentID, server.SpanID)
			}
			return
		}
	}
	t.Fatalf("no stream.deliver span in the caller's trace (%d spans)", len(spans))
}
