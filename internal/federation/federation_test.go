package federation

import (
	"context"
	"errors"
	"fmt"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sensorsafe/internal/abstraction"
	"sensorsafe/internal/auth"
	"sensorsafe/internal/broker"
	"sensorsafe/internal/query"
	"sensorsafe/internal/resilience"
)

var t0 = time.Date(2011, 2, 16, 8, 0, 0, 0, time.UTC)

// rel builds a minimal release at t0+offset.
func rel(contributor string, offset time.Duration) *abstraction.Release {
	return &abstraction.Release{
		Contributor: contributor,
		Start:       t0.Add(offset),
		End:         t0.Add(offset + time.Minute),
	}
}

// fakeStore serves canned releases with optional latency and scripted
// per-call errors.
type fakeStore struct {
	rels  []*abstraction.Release
	delay time.Duration
	// errs are consumed one per call; past the end calls succeed.
	errs  []error
	calls atomic.Int32
}

func (s *fakeStore) QueryCtx(ctx context.Context, _ auth.APIKey, q *query.Query) ([]*abstraction.Release, error) {
	n := int(s.calls.Add(1))
	if s.delay > 0 {
		select {
		case <-time.After(s.delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if n-1 < len(s.errs) && s.errs[n-1] != nil {
		return nil, s.errs[n-1]
	}
	out := make([]*abstraction.Release, len(s.rels))
	copy(out, s.rels)
	return out, nil
}

// fakeBroker resolves cohorts from fixtures and mints one credential per
// contributor, counting Connect calls.
type fakeBroker struct {
	mu           sync.Mutex
	hits         []broker.SearchHit
	dir          []broker.ContributorInfo
	lists        map[string][]string
	rosters      map[string][]string
	connectDelay time.Duration
	connectCalls map[string]int
	connectErr   map[string]error
}

func (b *fakeBroker) SearchInfoCtx(_ context.Context, _ auth.APIKey, _ *broker.SearchQuery) ([]broker.SearchHit, error) {
	return b.hits, nil
}

func (b *fakeBroker) DirectoryCtx(_ context.Context, _ auth.APIKey) ([]broker.ContributorInfo, error) {
	return b.dir, nil
}

func (b *fakeBroker) ListCtx(_ context.Context, _ auth.APIKey, name string) ([]string, error) {
	l, ok := b.lists[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", broker.ErrUnknownList, name)
	}
	return l, nil
}

func (b *fakeBroker) StudyContributorsCtx(_ context.Context, study string) ([]string, error) {
	l, ok := b.rosters[study]
	if !ok {
		return nil, fmt.Errorf("%w: %s", broker.ErrUnknownStudy, study)
	}
	return l, nil
}

func (b *fakeBroker) ConnectCtx(_ context.Context, _ auth.APIKey, contributor string) (broker.Credential, error) {
	if b.connectDelay > 0 {
		time.Sleep(b.connectDelay)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.connectCalls == nil {
		b.connectCalls = make(map[string]int)
	}
	b.connectCalls[contributor]++
	if err := b.connectErr[contributor]; err != nil {
		return broker.Credential{}, err
	}
	return broker.Credential{StoreAddr: "mem://" + contributor, Key: auth.APIKey("key-" + contributor)}, nil
}

func (b *fakeBroker) connects(contributor string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.connectCalls[contributor]
}

// deployFake builds an engine over fake stores keyed by "mem://<name>".
func deployFake(stores map[string]*fakeStore) (*Engine, *fakeBroker) {
	b := &fakeBroker{}
	for name := range stores {
		b.dir = append(b.dir, broker.ContributorInfo{Name: name, StoreAddr: "mem://" + name})
		b.hits = append(b.hits, broker.SearchHit{Contributor: name, StoreAddr: "mem://" + name})
	}
	e := &Engine{
		Broker: b,
		Key:    "consumer-key",
		Dial: func(addr string) Store {
			return stores[strings.TrimPrefix(addr, "mem://")]
		},
		Options: Options{PerStoreTimeout: 2 * time.Second},
	}
	return e, b
}

func TestCohortValidate(t *testing.T) {
	e, _ := deployFake(map[string]*fakeStore{"alice": {}})
	for _, c := range []Cohort{
		{},
		{List: "l", Study: "s"},
		{Search: &broker.SearchQuery{}, Contributors: []string{"alice"}},
	} {
		if _, err := e.CohortQuery(context.Background(), &Request{Cohort: c}); err == nil {
			t.Errorf("cohort %+v should be rejected", c)
		}
	}
}

func TestMergeGlobalTimeOrder(t *testing.T) {
	stores := map[string]*fakeStore{
		"alice": {rels: []*abstraction.Release{rel("alice", 0), rel("alice", 3*time.Hour)}},
		"bob":   {rels: []*abstraction.Release{rel("bob", time.Hour), rel("bob", 4*time.Hour)}},
		"carol": {rels: []*abstraction.Release{rel("carol", 2*time.Hour), rel("carol", 5*time.Hour)}},
	}
	e, _ := deployFake(stores)
	res, err := e.CohortQuery(context.Background(), &Request{
		Cohort: Cohort{Search: &broker.SearchQuery{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Releases) != 6 {
		t.Fatalf("merged %d releases, want 6", len(res.Releases))
	}
	wantOrder := []string{"alice", "bob", "carol", "alice", "bob", "carol"}
	for i, r := range res.Releases {
		if r.Contributor != wantOrder[i] {
			t.Errorf("release %d from %s, want %s", i, r.Contributor, wantOrder[i])
		}
		if i > 0 && res.Releases[i].Start.Before(res.Releases[i-1].Start) {
			t.Errorf("release %d out of global time order", i)
		}
	}
	if res.Partial {
		t.Error("all stores answered; result must not be partial")
	}
	if res.Cursor != "" {
		t.Errorf("exhausted cohort returned cursor %q", res.Cursor)
	}
}

func TestCursorPagination(t *testing.T) {
	stores := map[string]*fakeStore{
		"alice": {rels: []*abstraction.Release{rel("alice", 0), rel("alice", 2*time.Hour), rel("alice", 4*time.Hour)}},
		"bob":   {rels: []*abstraction.Release{rel("bob", time.Hour), rel("bob", 3*time.Hour)}},
	}
	e, _ := deployFake(stores)
	oneShot, err := e.CohortQuery(context.Background(), &Request{Cohort: Cohort{Contributors: []string{"alice", "bob"}}})
	if err != nil {
		t.Fatal(err)
	}

	var paged []*abstraction.Release
	cursor := ""
	pages := 0
	for {
		res, err := e.CohortQuery(context.Background(), &Request{
			Cohort: Cohort{Contributors: []string{"alice", "bob"}},
			Limit:  2, Cursor: cursor,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Releases) > 2 {
			t.Fatalf("page of %d releases exceeds limit 2", len(res.Releases))
		}
		paged = append(paged, res.Releases...)
		pages++
		if res.Cursor == "" {
			break
		}
		cursor = res.Cursor
		if pages > 10 {
			t.Fatal("pagination does not terminate")
		}
	}
	if pages != 3 {
		t.Errorf("5 releases at limit 2 took %d pages, want 3", pages)
	}
	if len(paged) != len(oneShot.Releases) {
		t.Fatalf("paged %d releases, one-shot %d", len(paged), len(oneShot.Releases))
	}
	for i := range paged {
		if !paged[i].Start.Equal(oneShot.Releases[i].Start) || paged[i].Contributor != oneShot.Releases[i].Contributor {
			t.Errorf("page item %d = %s@%v, one-shot %s@%v", i,
				paged[i].Contributor, paged[i].Start, oneShot.Releases[i].Contributor, oneShot.Releases[i].Start)
		}
	}
}

func TestCredentialCacheAndSingleFlight(t *testing.T) {
	stores := map[string]*fakeStore{
		"alice": {rels: []*abstraction.Release{rel("alice", 0)}},
		"bob":   {rels: []*abstraction.Release{rel("bob", time.Hour)}},
	}
	e, b := deployFake(stores)
	b.connectDelay = 10 * time.Millisecond // force concurrent queries to overlap in Connect

	const parallel = 4
	var wg sync.WaitGroup
	errs := make([]error, parallel)
	for i := 0; i < parallel; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = e.CohortQuery(context.Background(), &Request{Cohort: Cohort{Contributors: []string{"alice", "bob"}}})
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"alice", "bob"} {
		if n := b.connects(name); n != 1 {
			t.Errorf("%d Connect calls for %s across %d concurrent queries, want 1 (single-flight + cache)", n, name, parallel)
		}
	}
	// A later query must also reuse the vaulted credentials.
	if _, err := e.CohortQuery(context.Background(), &Request{Cohort: Cohort{Contributors: []string{"alice"}}}); err != nil {
		t.Fatal(err)
	}
	if n := b.connects("alice"); n != 1 {
		t.Errorf("follow-up query re-connected (%d calls)", n)
	}
}

func TestPartialFailureReports(t *testing.T) {
	unreachable := &url.Error{Op: "Post", URL: "mem://carol", Err: errors.New("connection refused")}
	denied := &resilience.StatusError{Code: 401, Msg: "bad key"}
	stores := map[string]*fakeStore{
		"alice": {rels: []*abstraction.Release{rel("alice", 0), rel("alice", time.Hour)}},
		"bob":   {delay: 500 * time.Millisecond}, // past the per-store deadline
		"carol": {errs: []error{unreachable, unreachable, unreachable}},
		"dave":  {errs: []error{denied, denied, denied}},
	}
	e, _ := deployFake(stores)
	e.Options.PerStoreTimeout = 50 * time.Millisecond
	res, err := e.CohortQuery(context.Background(), &Request{
		Cohort: Cohort{Contributors: []string{"alice", "bob", "carol", "dave"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Fatal("three stores failed; result must be partial")
	}
	if len(res.Releases) != 2 {
		t.Fatalf("reachable data: %d releases, want alice's 2", len(res.Releases))
	}
	want := map[string]Outcome{
		"alice": OutcomeOK,
		"bob":   OutcomeTimeout,
		"carol": OutcomeUnreachable,
		"dave":  OutcomeDenied,
	}
	if len(res.Reports) != len(want) {
		t.Fatalf("%d reports, want %d", len(res.Reports), len(want))
	}
	for _, rep := range res.Reports {
		if rep.Outcome != want[rep.Contributor] {
			t.Errorf("%s outcome = %s, want %s (err %q)", rep.Contributor, rep.Outcome, want[rep.Contributor], rep.Error)
		}
		if wantMissing := rep.Contributor != "alice"; rep.Missing != wantMissing {
			t.Errorf("%s missing = %v, want %v", rep.Contributor, rep.Missing, wantMissing)
		}
		if rep.Outcome != OutcomeOK && rep.Error == "" {
			t.Errorf("%s failed without an error detail", rep.Contributor)
		}
	}
}

func TestUnknownContributorIsExplicit(t *testing.T) {
	stores := map[string]*fakeStore{"alice": {rels: []*abstraction.Release{rel("alice", 0)}}}
	e, _ := deployFake(stores)
	res, err := e.CohortQuery(context.Background(), &Request{
		Cohort: Cohort{Contributors: []string{"alice", "ghost"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Fatal("a cohort member outside the directory must flag the result partial")
	}
	var ghost *StoreReport
	for i := range res.Reports {
		if res.Reports[i].Contributor == "ghost" {
			ghost = &res.Reports[i]
		}
	}
	if ghost == nil {
		t.Fatal("ghost has no report — silent drop")
	}
	if !ghost.Missing || ghost.Error == "" {
		t.Errorf("ghost report %+v must be missing with a reason", ghost)
	}
}

func TestListAndStudySelectors(t *testing.T) {
	stores := map[string]*fakeStore{
		"alice": {rels: []*abstraction.Release{rel("alice", 0)}},
		"bob":   {rels: []*abstraction.Release{rel("bob", time.Hour)}},
	}
	e, b := deployFake(stores)
	b.lists = map[string][]string{"pilot": {"alice"}}
	b.rosters = map[string][]string{"asthma": {"alice", "bob"}}

	res, err := e.CohortQuery(context.Background(), &Request{Cohort: Cohort{List: "pilot"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Releases) != 1 || res.Releases[0].Contributor != "alice" {
		t.Fatalf("list cohort = %+v", res.Releases)
	}

	res, err = e.CohortQuery(context.Background(), &Request{Cohort: Cohort{Study: "asthma"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Releases) != 2 {
		t.Fatalf("study cohort released %d, want 2", len(res.Releases))
	}
	if _, err := e.CohortQuery(context.Background(), &Request{Cohort: Cohort{Study: "unknown"}}); err == nil {
		t.Fatal("unknown study must fail the request, not return empty")
	}
}

func TestHedgedRequestBeatsStraggler(t *testing.T) {
	// First call straggles, the hedge answers quickly.
	slowOnce := &stragglerStore{
		inner:      &fakeStore{rels: []*abstraction.Release{rel("alice", 0)}},
		firstDelay: 300 * time.Millisecond,
	}
	e, _ := deployFake(map[string]*fakeStore{"alice": {}})
	e.Dial = func(string) Store { return slowOnce }
	e.Options.HedgeAfter = 20 * time.Millisecond

	start := time.Now()
	res, err := e.CohortQuery(context.Background(), &Request{
		Cohort: Cohort{Contributors: []string{"alice"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if len(res.Releases) != 1 {
		t.Fatalf("hedged query released %d, want 1", len(res.Releases))
	}
	rep := res.Reports[0]
	if !rep.Hedged || !rep.HedgeWon {
		t.Errorf("report %+v: want hedged and hedge-won", rep)
	}
	if elapsed >= 300*time.Millisecond {
		t.Errorf("hedge did not rescue the straggler: took %v", elapsed)
	}
}

// TestScatterConcurrencyBound checks that the fan-out never has more store
// queries in flight than the engine's Concurrency option, and that it does
// reach the bound rather than running serially.
func TestScatterConcurrencyBound(t *testing.T) {
	for _, bound := range []int{3, 5} {
		stores := make(map[string]*fakeStore)
		var names []string
		for i := 0; i < 12; i++ {
			name := fmt.Sprintf("c%02d", i)
			stores[name] = &fakeStore{rels: []*abstraction.Release{rel(name, time.Duration(i)*time.Minute)}}
			names = append(names, name)
		}
		e, _ := deployFake(stores)
		e.Options.Concurrency = bound
		g := &gauge{bound: int32(bound), full: make(chan struct{})}
		e.Dial = func(addr string) Store {
			return &gaugedStore{gauge: g, inner: stores[strings.TrimPrefix(addr, "mem://")]}
		}
		res, err := e.CohortQuery(context.Background(), &Request{
			Cohort: Cohort{Contributors: names},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Partial || len(res.Releases) != len(names) {
			t.Fatalf("partial=%v with %d releases, want all %d", res.Partial, len(res.Releases), len(names))
		}
		if peak := g.peak.Load(); peak != int32(bound) {
			t.Errorf("Concurrency %d: peak in-flight store queries %d", bound, peak)
		}
	}
}

// gauge counts store queries in flight across every store sharing it.
// Each query waits until the count first reaches bound (or a second
// passes), so a correct fan-out peaks at exactly bound.
type gauge struct {
	bound    int32
	full     chan struct{}
	once     sync.Once
	inflight atomic.Int32
	peak     atomic.Int32
}

type gaugedStore struct {
	*gauge
	inner *fakeStore
}

func (s *gaugedStore) QueryCtx(ctx context.Context, key auth.APIKey, q *query.Query) ([]*abstraction.Release, error) {
	n := s.inflight.Add(1)
	defer s.inflight.Add(-1)
	for p := s.peak.Load(); n > p && !s.peak.CompareAndSwap(p, n); p = s.peak.Load() {
	}
	if n >= s.bound {
		s.once.Do(func() { close(s.full) })
	}
	select {
	case <-s.full:
	case <-time.After(time.Second):
	}
	return s.inner.QueryCtx(ctx, key, q)
}

// stragglerStore delays only the first call, modeling a straggling
// replica.
type stragglerStore struct {
	inner      *fakeStore
	firstDelay time.Duration
	calls      atomic.Int32
}

func (s *stragglerStore) QueryCtx(ctx context.Context, key auth.APIKey, q *query.Query) ([]*abstraction.Release, error) {
	if s.calls.Add(1) == 1 {
		select {
		case <-time.After(s.firstDelay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return s.inner.QueryCtx(ctx, key, q)
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want Outcome
	}{
		{nil, OutcomeOK},
		{context.DeadlineExceeded, OutcomeTimeout},
		{fmt.Errorf("wrap: %w", context.DeadlineExceeded), OutcomeTimeout},
		{&resilience.StatusError{Code: 401, Msg: "x"}, OutcomeDenied},
		{&resilience.StatusError{Code: 403, Msg: "x"}, OutcomeDenied},
		{&resilience.StatusError{Code: 404, Msg: "x"}, OutcomeDenied},
		{&resilience.StatusError{Code: 503, Msg: "x"}, OutcomeUnreachable},
		{&resilience.StatusError{Code: 429, Msg: "x"}, OutcomeShed},
		{&resilience.StatusError{Code: 400, Msg: "x"}, OutcomeError},
		{&url.Error{Op: "Post", URL: "u", Err: errors.New("refused")}, OutcomeUnreachable},
		{errors.New("weird"), OutcomeError},
	}
	for _, c := range cases {
		if got := classify(c.err); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.err, got, c.want)
		}
	}
}

func TestCursorRoundTrip(t *testing.T) {
	st := &cursorState{Consumed: map[string]int{"alice": 3, "bob": 1}}
	enc := encodeCursor(st)
	if enc == "" {
		t.Fatal("non-empty state encoded to empty cursor")
	}
	dec, err := decodeCursor(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Consumed["alice"] != 3 || dec.Consumed["bob"] != 1 {
		t.Fatalf("round trip = %+v", dec.Consumed)
	}
	if _, err := decodeCursor("!!!not-base64!!!"); err == nil {
		t.Fatal("garbage cursor must be rejected")
	}
	empty, err := decodeCursor("")
	if err != nil || len(empty.Consumed) != 0 {
		t.Fatalf("empty cursor = %+v, %v", empty, err)
	}
}
