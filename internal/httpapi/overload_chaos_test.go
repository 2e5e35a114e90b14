package httpapi

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sensorsafe/internal/auth"
	"sensorsafe/internal/datastore"
	"sensorsafe/internal/overload"
	"sensorsafe/internal/query"
	"sensorsafe/internal/resilience"
	"sensorsafe/internal/wavesegment"
)

// overloadDeployment is a single store server with a test-controlled
// admission controller: the chaos pressure source is pinned by the test,
// so degradation states are entered deterministically instead of by
// actually exhausting the machine.
type overloadDeployment struct {
	ctrl     *overload.Controller
	pressure *atomic.Int64 // percent; the registered source reads it
	client   *StoreClient
	url      string
}

func deployOverload(t *testing.T) *overloadDeployment {
	t.Helper()
	svc, err := datastore.New(datastore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })

	cfg := overload.Config{Component: "store", RecomputeEvery: time.Nanosecond}
	// A tiny stream gate makes capacity shedding reachable with two
	// long-polls; the short queue wait keeps the test fast.
	cfg.Capacity[overload.ClassStream] = 2
	cfg.QueueWait[overload.ClassStream] = 25 * time.Millisecond
	ctrl := overload.NewController(cfg)

	var pressure atomic.Int64
	ctrl.AddSource("chaos", func() float64 { return float64(pressure.Load()) / 100 })

	server := httptest.NewServer(NewStoreHandlerOverload(svc, ctrl))
	t.Cleanup(server.Close)
	return &overloadDeployment{
		ctrl:     ctrl,
		pressure: &pressure,
		// A single attempt keeps the shed arithmetic exact: the default
		// policy would retry 429s after Retry-After and hide the shed.
		client: &StoreClient{BaseURL: server.URL, Retry: &resilience.Policy{MaxAttempts: 1}},
		url:    server.URL,
	}
}

// shedCode reports whether err is the admission controller's 429.
func shedCode(err error) bool {
	var se *resilience.StatusError
	return errors.As(err, &se) && se.Code == http.StatusTooManyRequests
}

// TestChaosOverloadBrownout drives the store through a full degradation
// cycle and checks the paper's shedding order with exact counts: under
// forced overload every query and stream request is shed with 429 +
// Retry-After while every upload and rule mutation succeeds (zero ingest
// loss, privacy mutations never shed); after recovery the rules written
// during the brownout are enforced on what was ingested during it.
func TestChaosOverloadBrownout(t *testing.T) {
	ctx := context.Background()
	d := deployOverload(t)

	alice, err := d.client.RegisterCtx(ctx, "alice", "contributor")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.client.SetRulesCtx(ctx, alice.Key, []byte(`[{"Action":"Allow"}]`)); err != nil {
		t.Fatal(err)
	}
	bob, err := d.client.RegisterCtx(ctx, "Bob", "consumer")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := d.client.SubscribeCtx(ctx, bob.Key, "alice", nil)
	if err != nil {
		t.Fatal(err)
	}

	// Baseline ingest before the storm: one packet = one record.
	if n, err := d.client.UploadCtx(ctx, alice.Key, []*wavesegment.Segment{streamPacket(t0, 8)}); err != nil || n != 1 {
		t.Fatalf("baseline upload = %d, %v", n, err)
	}

	// Force overload and wait for the state machine to see it. With a
	// nanosecond recompute interval the next call observes the source.
	d.pressure.Store(100)
	if st := d.ctrl.State(); st != overload.StateOverloaded {
		t.Fatalf("state after pressure spike = %s, want overloaded", st)
	}

	// A shed response must carry a whole-second Retry-After hint.
	resp, err := http.Post(d.url+"/api/query", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("query under overload = %d, want 429", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want whole seconds >= 1", resp.Header.Get("Retry-After"))
	}

	// Saturating mixed load: 4 workers × (10 queries + 3 stream polls +
	// 5 uploads). Brownout decisions are deterministic at pinned pressure,
	// so the shed arithmetic must balance exactly.
	const (
		workers          = 4
		queriesPerWorker = 10
		streamsPerWorker = 3
		uploadsPerWorker = 5
	)
	var (
		queryShed, queryOther   atomic.Int64
		streamShed, streamOther atomic.Int64
		uploadOK, uploadShed    atomic.Int64
		recordsIn               atomic.Int64
		wg                      sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < queriesPerWorker; i++ {
				if _, err := d.client.QueryCtx(ctx, bob.Key, &query.Query{}); shedCode(err) {
					queryShed.Add(1)
				} else {
					queryOther.Add(1)
				}
			}
			for i := 0; i < streamsPerWorker; i++ {
				if _, err := d.client.NextCtx(ctx, bob.Key, sub.ID, sub.Cursor, 0); shedCode(err) {
					streamShed.Add(1)
				} else {
					streamOther.Add(1)
				}
			}
			for i := 0; i < uploadsPerWorker; i++ {
				seg := streamPacket(t0.Add(time.Duration(w*uploadsPerWorker+i+1)*time.Hour), 8)
				switch n, err := d.client.UploadCtx(ctx, alice.Key, []*wavesegment.Segment{seg}); {
				case err == nil:
					uploadOK.Add(1)
					recordsIn.Add(int64(n))
				case shedCode(err):
					uploadShed.Add(1)
				default:
					t.Errorf("upload failed with non-shed error: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	if got, want := queryShed.Load(), int64(workers*queriesPerWorker); got != want || queryOther.Load() != 0 {
		t.Errorf("query sheds = %d (non-shed %d), want exactly %d", got, queryOther.Load(), want)
	}
	if got, want := streamShed.Load(), int64(workers*streamsPerWorker); got != want || streamOther.Load() != 0 {
		t.Errorf("stream sheds = %d (non-shed %d), want exactly %d", got, streamOther.Load(), want)
	}
	if uploadShed.Load() != 0 || uploadOK.Load() != int64(workers*uploadsPerWorker) {
		t.Errorf("ingest loss under overload: ok=%d shed=%d, want %d/0",
			uploadOK.Load(), uploadShed.Load(), workers*uploadsPerWorker)
	}

	// Privacy-rule mutations ride the never-shed tier: tightening location
	// sharing mid-brownout must succeed.
	if err := d.client.SetRulesCtx(ctx, alice.Key, []byte(`[
	  {"Action":"Allow"},
	  {"Action":{"Abstraction":{"Location":"City"}}}
	]`)); err != nil {
		t.Fatalf("rule mutation shed during overload: %v", err)
	}

	// Recovery: drop pressure, the state machine steps straight home.
	d.pressure.Store(0)
	if st := d.ctrl.State(); st != overload.StateHealthy {
		t.Fatalf("state after recovery = %s, want healthy", st)
	}

	// Zero ingest loss: every record accepted during the brownout is
	// queryable afterwards.
	segs, err := d.client.QueryOwnCtx(ctx, alice.Key, &query.Query{})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range segs {
		total += len(s.Values)
	}
	// Every packet carries 8 samples; all of them must be queryable.
	if want := 8 * (1 + int(recordsIn.Load())); total != want {
		t.Errorf("samples after recovery = %d, want %d (zero ingest loss)", total, want)
	}

	// Zero privacy violations: the rule set written during the brownout
	// governs the releases, including data ingested while overloaded.
	rels, err := d.client.QueryCtx(ctx, bob.Key, &query.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) == 0 {
		t.Fatal("no releases after recovery")
	}
	for _, rel := range rels {
		if rel.Location.Point != nil {
			t.Fatal("exact location leaked despite rule written during brownout")
		}
	}
}

// TestChaosOverloadCapacityShed exercises the healthy-state shedding path:
// when the stream gate is full, an extra long-poll waits out its queue
// deadline and is shed with 429 while the slot holders complete normally.
func TestChaosOverloadCapacityShed(t *testing.T) {
	ctx := context.Background()
	d := deployOverload(t)

	if _, err := d.client.RegisterCtx(ctx, "alice", "contributor"); err != nil {
		t.Fatal(err)
	}
	type subscriber struct {
		key auth.APIKey
		id  string
	}
	var subs []subscriber
	for _, name := range []string{"Bob", "Carol", "Dave"} {
		u, err := d.client.RegisterCtx(ctx, name, "consumer")
		if err != nil {
			t.Fatal(err)
		}
		info, err := d.client.SubscribeCtx(ctx, u.Key, "alice", nil)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, subscriber{key: u.Key, id: info.ID})
	}

	// Two long-polls occupy the whole stream gate (capacity 2).
	var wg sync.WaitGroup
	for _, s := range subs[:2] {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := d.client.NextCtx(ctx, s.key, s.id, "0", time.Second); err != nil {
				t.Errorf("slot-holding poll failed: %v", err)
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for d.ctrl.Snapshot().InFlight[overload.ClassStream.String()] != 2 {
		if time.Now().After(deadline) {
			t.Fatal("stream gate never filled")
		}
		time.Sleep(time.Millisecond)
	}

	// The third poll cannot get a slot within the 25ms queue wait.
	if _, err := d.client.NextCtx(ctx, subs[2].key, subs[2].id, "0", 0); !shedCode(err) {
		t.Errorf("over-capacity poll = %v, want 429 shed", err)
	}
	if st := d.ctrl.State(); st != overload.StateHealthy {
		t.Errorf("capacity shedding flipped state to %s", st)
	}
	wg.Wait()
}
