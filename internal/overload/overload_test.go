package overload

import (
	"context"
	"sync"
	"testing"
	"time"
)

// testConfig is a small, fast controller with a controllable clock.
func testConfig(now *time.Time, mu *sync.Mutex) Config {
	c := Config{Component: "store"}
	c.Capacity = [NumClasses]int{ClassStream: 2, ClassQuery: 2, ClassDirectory: 2, ClassIngest: 4}
	c.QueueWait = [NumClasses]time.Duration{
		ClassStream:    5 * time.Millisecond,
		ClassQuery:     5 * time.Millisecond,
		ClassDirectory: 5 * time.Millisecond,
		ClassIngest:    50 * time.Millisecond,
	}
	c.RecomputeEvery = time.Nanosecond // recompute on every call
	if now != nil {
		c.Now = func() time.Time {
			mu.Lock()
			defer mu.Unlock()
			return *now
		}
	}
	return c
}

func TestAdmitReleaseCycle(t *testing.T) {
	c := NewController(testConfig(nil, nil))
	ctx := context.Background()
	rel, rej := c.Admit(ctx, ClassQuery, "alice")
	if rej != nil {
		t.Fatalf("healthy admit rejected: %v", rej)
	}
	if c.Snapshot().InFlight["query"] != 1 {
		t.Fatalf("in-flight not tracked: %+v", c.Snapshot())
	}
	rel()
	rel() // idempotent
	if got := c.Snapshot().InFlight["query"]; got != 0 {
		t.Fatalf("release did not drain in-flight: %d", got)
	}
}

func TestGateOverflowShedsWithQueueWait(t *testing.T) {
	c := NewController(testConfig(nil, nil))
	ctx := context.Background()
	var rels []func()
	for i := 0; i < 2; i++ {
		rel, rej := c.Admit(ctx, ClassStream, "a")
		if rej != nil {
			t.Fatalf("admit %d rejected: %v", i, rej)
		}
		rels = append(rels, rel)
	}
	start := time.Now()
	rel, rej := c.Admit(ctx, ClassStream, "a")
	if rej == nil {
		rel()
		t.Fatal("third stream admit should shed on full gate")
	}
	if rej.Reason != "capacity" {
		t.Fatalf("reason = %q, want capacity", rej.Reason)
	}
	if waited := time.Since(start); waited < 4*time.Millisecond {
		t.Fatalf("shed without honoring queue-wait deadline: waited %s", waited)
	}
	if rej.RetryAfter < time.Second {
		t.Fatalf("RetryAfter %s below the 1s wire floor", rej.RetryAfter)
	}
	for _, r := range rels {
		r()
	}
	if rel, rej := c.Admit(ctx, ClassStream, "a"); rej != nil {
		t.Fatalf("admit after release rejected: %v", rej)
	} else {
		rel()
	}
}

func TestGateWaitSucceedsWhenSlotFrees(t *testing.T) {
	c := NewController(testConfig(nil, nil))
	cfg := c.cfg
	cfg.QueueWait[ClassQuery] = 500 * time.Millisecond
	c = NewController(cfg)
	ctx := context.Background()
	rel1, _ := c.Admit(ctx, ClassQuery, "a")
	rel2, _ := c.Admit(ctx, ClassQuery, "a")
	_ = rel2
	done := make(chan *Rejection, 1)
	go func() {
		rel, rej := c.Admit(ctx, ClassQuery, "b")
		if rel != nil {
			defer rel()
		}
		done <- rej
	}()
	time.Sleep(10 * time.Millisecond)
	rel1()
	select {
	case rej := <-done:
		if rej != nil {
			t.Fatalf("waiter should admit once a slot freed: %v", rej)
		}
	case <-time.After(time.Second):
		t.Fatal("waiter never admitted")
	}
	rel2()
}

func TestBrownoutOrdering(t *testing.T) {
	pressure := 0.0
	var pmu sync.Mutex
	c := NewController(testConfig(nil, nil))
	c.AddSource("test", func() float64 {
		pmu.Lock()
		defer pmu.Unlock()
		return pressure
	})
	ctx := context.Background()
	setPressure := func(p float64) {
		pmu.Lock()
		pressure = p
		pmu.Unlock()
	}
	admit := func(class Class) *Rejection {
		rel, rej := c.Admit(ctx, class, "x")
		if rel != nil {
			rel()
		}
		return rej
	}

	setPressure(0.80) // degraded
	if got := c.State(); got != StateDegraded {
		t.Fatalf("state at 0.80 = %s, want degraded", got)
	}
	if rej := admit(ClassStream); rej == nil || rej.Reason != "brownout" {
		t.Fatalf("degraded should shed stream, got %v", rej)
	}
	for _, cl := range []Class{ClassQuery, ClassDirectory, ClassIngest} {
		if rej := admit(cl); rej != nil {
			t.Fatalf("degraded should admit %s, got %v", cl, rej)
		}
	}

	setPressure(0.95) // overloaded
	if got := c.State(); got != StateOverloaded {
		t.Fatalf("state at 0.95 = %s, want overloaded", got)
	}
	for _, cl := range []Class{ClassStream, ClassQuery} {
		rej := admit(cl)
		if rej == nil || rej.Reason != "brownout" {
			t.Fatalf("overloaded should shed %s, got %v", cl, rej)
		}
		if rej.RetryAfter != 5*time.Second {
			t.Fatalf("overloaded RetryAfter = %s, want 5s", rej.RetryAfter)
		}
	}
	for _, cl := range []Class{ClassDirectory, ClassIngest} {
		if rej := admit(cl); rej != nil {
			t.Fatalf("overloaded must still admit %s, got %v", cl, rej)
		}
	}

	setPressure(0.0) // recover
	if got := c.State(); got != StateHealthy {
		t.Fatalf("state after recovery = %s, want healthy", got)
	}
	if rej := admit(ClassStream); rej != nil {
		t.Fatalf("healthy should admit stream, got %v", rej)
	}
}

func TestStateHysteresis(t *testing.T) {
	pressure := 0.0
	var pmu sync.Mutex
	c := NewController(testConfig(nil, nil))
	c.AddSource("test", func() float64 {
		pmu.Lock()
		defer pmu.Unlock()
		return pressure
	})
	set := func(p float64) State {
		pmu.Lock()
		pressure = p
		pmu.Unlock()
		return c.State()
	}
	if got := set(0.80); got != StateDegraded {
		t.Fatalf("0.80 → %s, want degraded", got)
	}
	// Dropping just below the entry threshold is inside the hysteresis
	// band: the state must hold.
	if got := set(0.70); got != StateDegraded {
		t.Fatalf("0.70 from degraded → %s, want degraded (hysteresis)", got)
	}
	if got := set(0.60); got != StateHealthy {
		t.Fatalf("0.60 → %s, want healthy", got)
	}
	if got := set(0.95); got != StateOverloaded {
		t.Fatalf("0.95 → %s, want overloaded", got)
	}
	if got := set(0.88); got != StateOverloaded {
		t.Fatalf("0.88 from overloaded → %s, want overloaded (hysteresis)", got)
	}
	if got := set(0.78); got != StateDegraded {
		t.Fatalf("0.78 → %s, want degraded", got)
	}
}

func TestRateLimitPerPrincipal(t *testing.T) {
	cfg := testConfig(nil, nil)
	cfg.RatePerPrincipal = 1 // 1 rps
	cfg.RateBurst = 2
	now := time.Unix(1000, 0)
	var nmu sync.Mutex
	cfg.Now = func() time.Time {
		nmu.Lock()
		defer nmu.Unlock()
		return now
	}
	c := NewController(cfg)
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		rel, rej := c.Admit(ctx, ClassQuery, "alice")
		if rej != nil {
			t.Fatalf("burst admit %d rejected: %v", i, rej)
		}
		rel()
	}
	_, rej := c.Admit(ctx, ClassQuery, "alice")
	if rej == nil || rej.Reason != "ratelimit" {
		t.Fatalf("third query in the same instant should rate-limit, got %v", rej)
	}
	// A different principal is unaffected.
	if rel, rej := c.Admit(ctx, ClassQuery, "bob"); rej != nil {
		t.Fatalf("bob rejected by alice's bucket: %v", rej)
	} else {
		rel()
	}
	// Ingest is exempt even for the limited principal.
	if rel, rej := c.Admit(ctx, ClassIngest, "alice"); rej != nil {
		t.Fatalf("ingest must bypass rate limits: %v", rej)
	} else {
		rel()
	}
	// Tokens refill with the clock.
	nmu.Lock()
	now = now.Add(2 * time.Second)
	nmu.Unlock()
	if rel, rej := c.Admit(ctx, ClassQuery, "alice"); rej != nil {
		t.Fatalf("refilled bucket still rejecting: %v", rej)
	} else {
		rel()
	}
}

func TestIngestExemptFromBrownout(t *testing.T) {
	c := NewController(testConfig(nil, nil))
	c.AddSource("pegged", func() float64 { return 1.0 })
	ctx := context.Background()
	if got := c.State(); got != StateOverloaded {
		t.Fatalf("pegged source should overload, got %s", got)
	}
	// Every ingest slot admits even at max pressure.
	var rels []func()
	for i := 0; i < 4; i++ {
		rel, rej := c.Admit(ctx, ClassIngest, "phone")
		if rej != nil {
			t.Fatalf("overloaded state shed ingest %d: %v", i, rej)
		}
		rels = append(rels, rel)
	}
	for _, r := range rels {
		r()
	}
}

func TestAdmitCanceledContext(t *testing.T) {
	c := NewController(testConfig(nil, nil))
	ctx := context.Background()
	rel1, _ := c.Admit(ctx, ClassQuery, "a")
	rel2, _ := c.Admit(ctx, ClassQuery, "a")
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	_, rej := c.Admit(cctx, ClassQuery, "a")
	if rej == nil {
		t.Fatal("canceled waiter should report a rejection")
	}
	rel1()
	rel2()
}

func TestControllerConcurrency(t *testing.T) {
	cfg := testConfig(nil, nil)
	cfg.RatePerPrincipal = 1e6
	c := NewController(cfg)
	c.AddSource("wobble", func() float64 { return 0.5 })
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				class := Class(i % NumClasses)
				rel, rej := c.Admit(ctx, class, "p")
				if rej == nil {
					c.Snapshot()
					rel()
				}
			}
		}(g)
	}
	wg.Wait()
	snap := c.Snapshot()
	for cl, n := range snap.InFlight {
		if n != 0 {
			t.Fatalf("leaked %d in-flight slots in class %s", n, cl)
		}
	}
}

func TestDefaultsAreSane(t *testing.T) {
	s := StoreDefaults()
	if s.Capacity[ClassIngest] <= s.Capacity[ClassQuery] {
		t.Fatal("ingest capacity must exceed query capacity")
	}
	if s.QueueWait[ClassIngest] <= s.QueueWait[ClassStream] {
		t.Fatal("ingest queue-wait must exceed stream queue-wait")
	}
	b := BrokerDefaults()
	if b.Component != "broker" {
		t.Fatalf("broker component = %q", b.Component)
	}
	if degradedAt >= overloadedAt {
		t.Fatal("thresholds out of order")
	}
}
