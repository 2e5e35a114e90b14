// Package federation is the cohort query engine: the layer between the
// broker and the fleet of per-owner remote data stores that the paper's
// consumer workflow implies (§4: search the broker for matching
// contributors, then fetch data *directly* from each contributor's store).
// It resolves a cohort (broker search, explicit contributor list, saved
// list, or study roster) to store addresses, amortizes the Connect
// credential handshake through a concurrency-safe cache, scatter-gathers
// Query calls across every store with bounded worker concurrency,
// per-store deadlines, and hedged requests for stragglers, and merges the
// answers into one globally time-ordered, cursor-paginated release stream.
// Per-store failures are first-class data: every response carries a
// StoreReport per cohort member so "no data" and "store down" are never
// confused.
//
// The package is transport-agnostic: httpapi's BrokerClient/StoreClient
// satisfy Broker and Store for networked deployments, and thin adapters
// over broker.Service/datastore.Service do for in-process ones.
package federation

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"sensorsafe/internal/abstraction"
	"sensorsafe/internal/auth"
	"sensorsafe/internal/broker"
	"sensorsafe/internal/obs"
	"sensorsafe/internal/obs/trace"
	"sensorsafe/internal/query"
)

// Federation metrics (README catalog: Federated queries).
var (
	metricCohortQueries = obs.NewCounter("sensorsafe_federation_cohort_queries_total",
		"Federated cohort queries executed.")
	metricFanout = obs.NewHistogram("sensorsafe_federation_fanout_width",
		"Stores fanned out to per cohort query.",
		[]float64{1, 2, 5, 10, 20, 50, 100, 200, 500})
	metricStoreLatency = obs.NewHistogram("sensorsafe_federation_store_latency_seconds",
		"Per-store fetch latency inside cohort queries.", obs.DefBuckets)
	metricOutcomes = obs.NewCounterVec("sensorsafe_federation_store_outcomes_total",
		"Per-store cohort query outcomes.", "outcome")
	metricHedges = obs.NewCounter("sensorsafe_federation_hedges_total",
		"Hedged (duplicate) store requests fired for stragglers.")
	metricHedgeWins = obs.NewCounter("sensorsafe_federation_hedge_wins_total",
		"Hedged requests that answered before the original.")
	metricPartial = obs.NewCounter("sensorsafe_federation_partial_results_total",
		"Cohort queries that returned with at least one store missing.")
	metricCreds = obs.NewCounterVec("sensorsafe_federation_credentials_total",
		"Store credential lookups, by source.", "source")
)

// Broker is the slice of broker surface the engine needs: cohort
// resolution and credential provisioning. *httpapi.BrokerClient satisfies
// it.
type Broker interface {
	SearchInfoCtx(ctx context.Context, key auth.APIKey, q *broker.SearchQuery) ([]broker.SearchHit, error)
	DirectoryCtx(ctx context.Context, key auth.APIKey) ([]broker.ContributorInfo, error)
	ListCtx(ctx context.Context, key auth.APIKey, name string) ([]string, error)
	StudyContributorsCtx(ctx context.Context, study string) ([]string, error)
	ConnectCtx(ctx context.Context, key auth.APIKey, contributor string) (broker.Credential, error)
}

// Store is one remote data store's consumer query surface.
// *httpapi.StoreClient satisfies it.
type Store interface {
	QueryCtx(ctx context.Context, key auth.APIKey, q *query.Query) ([]*abstraction.Release, error)
}

// Options tune the scatter-gather; the zero value gets production
// defaults.
type Options struct {
	// Concurrency bounds in-flight store fetches (default 16).
	Concurrency int
	// PerStoreTimeout deadlines each store's fetch, hedge included
	// (default 10s).
	PerStoreTimeout time.Duration
	// HedgeAfter fires a duplicate request when a store has not answered
	// within this delay; whichever attempt returns first wins. 0 disables
	// hedging. Queries are read-only, so a duplicate is always safe.
	HedgeAfter time.Duration
}

const (
	defaultConcurrency     = 16
	defaultPerStoreTimeout = 10 * time.Second
)

// Cohort selects which contributors a query fans out to. Exactly one
// selector must be set.
type Cohort struct {
	// Search resolves the cohort dynamically via the broker's replicated
	// rules — contributors whose rules would release the demanded data.
	Search *broker.SearchQuery
	// Contributors is an explicit list; store addresses come from one
	// Directory call.
	Contributors []string
	// List names a saved contributor list on the broker.
	List string
	// Study names a study whose enrolled contributor roster is the cohort.
	Study string
}

func (c *Cohort) validate() error {
	n := 0
	if c.Search != nil {
		n++
	}
	if len(c.Contributors) > 0 {
		n++
	}
	if c.List != "" {
		n++
	}
	if c.Study != "" {
		n++
	}
	if n != 1 {
		return fmt.Errorf("federation: exactly one cohort selector required (search, contributors, list, or study), got %d", n)
	}
	return nil
}

// Request is one federated cohort query.
type Request struct {
	// Cohort picks the contributors.
	Cohort Cohort
	// Query is the per-store data query; its Contributor field is
	// overwritten per cohort member. Nil means everything the rules
	// release.
	Query *query.Query
	// Limit caps the releases per page (0 = everything in one page).
	Limit int
	// Cursor resumes a paginated query (opaque token from a previous
	// Result).
	Cursor string
}

// Result is one page of a federated cohort query.
type Result struct {
	// Releases are the page's spans in global (start, end, contributor)
	// order.
	Releases []*abstraction.Release `json:"releases"`
	// Reports carries one entry per cohort member, sorted by contributor —
	// including members that failed, so absence is always explicit.
	Reports []StoreReport `json:"reports"`
	// Cursor resumes the next page ("" when every reachable store is
	// drained).
	Cursor string `json:"cursor,omitempty"`
	// Partial flags that at least one store's data is missing (check
	// Reports for which and why). A paginating consumer must treat the
	// whole result as potentially incomplete when set.
	Partial bool `json:"partial,omitempty"`
}

// Engine runs federated cohort queries for one consumer. Safe for
// concurrent use; the credential and store-client caches are shared
// across queries, so repeated cohorts skip the Connect handshake.
type Engine struct {
	// Broker resolves cohorts and provisions credentials.
	Broker Broker
	// Key is the consumer's broker API key.
	Key auth.APIKey
	// Dial returns a query client for a store address.
	Dial func(addr string) Store
	// Options are the engine-wide defaults.
	Options Options

	mu       sync.Mutex
	creds    map[string]broker.Credential // contributor → store credential; guarded by mu
	inflight map[string]chan struct{}     // contributor → pending Connect; guarded by mu
	stores   map[string]Store             // addr → dialed client; guarded by mu
}

// member is one resolved cohort entry.
type member struct {
	contributor string
	storeAddr   string
}

// fetchResult is one store's scatter outcome.
type fetchResult struct {
	member
	rels     []*abstraction.Release
	err      error
	latency  time.Duration
	hedged   bool
	hedgeWon bool
}

// CohortQuery resolves the cohort, scatter-gathers the per-store queries,
// and returns one merged, paginated, failure-annotated page. The error
// return is reserved for request-level failures (bad cohort, broker
// unreachable, bad cursor); per-store failures land in Result.Reports.
func (e *Engine) CohortQuery(ctx context.Context, req *Request) (result *Result, err error) {
	ctx, qspan, stopQuery := obs.Span(ctx, "federation.cohort_query")
	defer func() {
		if result != nil {
			qspan.SetAttr(trace.Int("releases", len(result.Releases)),
				trace.Bool("partial", result.Partial))
		}
		stopQuery(err)
	}()
	if err := req.Cohort.validate(); err != nil {
		return nil, err
	}
	cur, err := decodeCursor(req.Cursor)
	if err != nil {
		return nil, err
	}
	members, err := e.resolve(ctx, &req.Cohort)
	if err != nil {
		return nil, err
	}
	qspan.SetAttr(trace.Int("stores", len(members)))
	metricCohortQueries.Inc()
	metricFanout.Observe(float64(len(members)))

	results := e.scatter(ctx, members, req)

	// Gather: merge the successful streams, report everything.
	streams := make([]*mergeStream, 0, len(results))
	for _, r := range results {
		if r.err == nil {
			streams = append(streams, &mergeStream{contributor: r.contributor, rels: r.rels})
		}
	}
	out, delivered, _ := mergePage(streams, cur, req.Limit)

	res := &Result{Releases: out}
	next := &cursorState{Consumed: make(map[string]int)}
	for c, n := range cur.Consumed {
		next.Consumed[c] = n
	}
	remaining := 0
	for _, r := range results {
		rep := StoreReport{
			Contributor: r.contributor,
			StoreAddr:   r.storeAddr,
			Outcome:     classify(r.err),
			Releases:    delivered[r.contributor],
			Latency:     r.latency,
			Hedged:      r.hedged,
			HedgeWon:    r.hedgeWon,
		}
		if r.err != nil {
			rep.Error = r.err.Error()
			rep.Missing = true
			res.Partial = true
		} else {
			consumed := cur.Consumed[r.contributor] + delivered[r.contributor]
			if consumed > len(r.rels) {
				consumed = len(r.rels)
			}
			next.Consumed[r.contributor] = consumed
			rep.Remaining = len(r.rels) - consumed
			remaining += rep.Remaining
		}
		metricOutcomes.With(string(rep.Outcome)).Inc()
		res.Reports = append(res.Reports, rep)
	}
	sort.Slice(res.Reports, func(i, j int) bool {
		return res.Reports[i].Contributor < res.Reports[j].Contributor
	})
	// A cursor is returned while any reachable store has more, and also on
	// partial results — re-running with it after the failed stores recover
	// resumes exactly where the delivered data ends, instead of
	// re-downloading this page.
	if remaining > 0 || res.Partial {
		res.Cursor = encodeCursor(next)
	}
	if res.Partial {
		metricPartial.Inc()
	}
	return res, nil
}

// resolve turns the cohort selector into {contributor, storeAddr} pairs.
// Search carries addresses already (SearchInfo); name-based selectors
// resolve through one Directory call. Members the directory does not know
// keep an empty address and surface later as explicit unreachable reports
// rather than being silently dropped.
func (e *Engine) resolve(ctx context.Context, c *Cohort) (members []member, err error) {
	ctx, rspan, stopResolve := obs.Span(ctx, "federation.resolve")
	defer func() {
		rspan.SetAttr(trace.Int("members", len(members)))
		stopResolve(err)
	}()
	if c.Search != nil {
		hits, err := e.Broker.SearchInfoCtx(ctx, e.Key, c.Search)
		if err != nil {
			return nil, fmt.Errorf("federation: search: %w", err)
		}
		out := make([]member, len(hits))
		for i, h := range hits {
			out[i] = member{contributor: h.Contributor, storeAddr: h.StoreAddr}
		}
		return out, nil
	}
	var names []string
	switch {
	case len(c.Contributors) > 0:
		names = c.Contributors
	case c.List != "":
		if names, err = e.Broker.ListCtx(ctx, e.Key, c.List); err != nil {
			return nil, fmt.Errorf("federation: list %q: %w", c.List, err)
		}
	case c.Study != "":
		if names, err = e.Broker.StudyContributorsCtx(ctx, c.Study); err != nil {
			return nil, fmt.Errorf("federation: study %q: %w", c.Study, err)
		}
	}
	dir, err := e.Broker.DirectoryCtx(ctx, e.Key)
	if err != nil {
		return nil, fmt.Errorf("federation: directory: %w", err)
	}
	addrs := make(map[string]string, len(dir))
	for _, d := range dir {
		addrs[strings.ToLower(strings.TrimSpace(d.Name))] = d.StoreAddr
	}
	seen := make(map[string]bool, len(names))
	var out []member
	for _, n := range names {
		key := strings.ToLower(strings.TrimSpace(n))
		if key == "" || seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, member{contributor: n, storeAddr: addrs[key]})
	}
	return out, nil
}

// scatter fans the per-store fetches out under the concurrency bound and
// waits for all of them (each is individually deadlined, so the gather
// converges even with stores hanging).
func (e *Engine) scatter(ctx context.Context, members []member, req *Request) []fetchResult {
	conc := e.Options.Concurrency
	if conc <= 0 {
		conc = defaultConcurrency
	}
	sem := make(chan struct{}, conc)
	results := make([]fetchResult, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i int, m member) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i] = e.fetchMember(ctx, m, req)
		}(i, m)
	}
	wg.Wait()
	return results
}

// fetchMember runs one store's leg: credential (cached), then the
// deadlined, optionally hedged query.
func (e *Engine) fetchMember(ctx context.Context, m member, req *Request) fetchResult {
	ctx, mspan, stopFetch := obs.Span(ctx, "federation.store_query")
	mspan.SetAttr(trace.String("contributor", m.contributor))
	res := fetchResult{member: m}
	defer func() {
		mspan.SetAttr(trace.String("store", res.storeAddr),
			trace.Bool("hedged", res.hedged), trace.Bool("hedge_won", res.hedgeWon))
		stopFetch(res.err)
	}()
	if m.storeAddr == "" {
		res.err = fmt.Errorf("federation: %s is not in the broker directory", m.contributor)
		return res
	}
	cred, err := e.credential(ctx, m.contributor)
	if err != nil {
		res.err = fmt.Errorf("federation: connect %s: %w", m.contributor, err)
		return res
	}
	// The vaulted address wins over the directory's: Connect is what
	// actually provisioned the key.
	if cred.StoreAddr != "" {
		res.storeAddr = cred.StoreAddr
	}
	st := e.store(res.storeAddr)

	q := &query.Query{}
	if req.Query != nil {
		qq := *req.Query
		q = &qq
	}
	q.Contributor = m.contributor

	timeout := e.Options.PerStoreTimeout
	if timeout <= 0 {
		timeout = defaultPerStoreTimeout
	}

	start := time.Now()
	res.rels, res.hedged, res.hedgeWon, res.err = fetch(ctx, st, cred.Key, q, timeout, e.Options.HedgeAfter)
	res.latency = time.Since(start)
	metricStoreLatency.Observe(res.latency.Seconds())
	return res
}

// fetch runs one store query under its deadline, firing a hedged duplicate
// if the first attempt is still unanswered after hedgeAfter. Whichever
// attempt succeeds first wins; the loser's result is discarded (queries
// are read-only, so duplicates are harmless).
func fetch(ctx context.Context, st Store, key auth.APIKey, q *query.Query, timeout, hedgeAfter time.Duration) (rels []*abstraction.Release, hedged, hedgeWon bool, err error) {
	fctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	type attempt struct {
		rels  []*abstraction.Release
		err   error
		hedge bool
	}
	ch := make(chan attempt, 2)
	launch := func(isHedge bool) {
		go func() {
			actx := fctx
			stop := func(error) {}
			if isHedge {
				// A hedge is its own child span so duplicate requests fired
				// for stragglers stay visible in the trace tree.
				actx, _, stop = obs.Span(fctx, "federation.hedge")
			}
			r, err := st.QueryCtx(actx, key, q)
			stop(err)
			ch <- attempt{rels: r, err: err, hedge: isHedge}
		}()
	}
	launch(false)
	outstanding := 1

	var hedgeC <-chan time.Time
	if hedgeAfter > 0 {
		t := time.NewTimer(hedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}

	var firstErr error
	for {
		select {
		case a := <-ch:
			outstanding--
			if a.err == nil {
				if a.hedge {
					metricHedgeWins.Inc()
				}
				return a.rels, hedged, a.hedge, nil
			}
			if firstErr == nil {
				firstErr = a.err
			}
			if outstanding == 0 {
				if hedgeC != nil && fctx.Err() == nil {
					// The only attempt failed before the hedge timer; fire
					// the hedge now as a fast retry instead of giving up.
					hedgeC = nil
					hedged = true
					metricHedges.Inc()
					launch(true)
					outstanding = 1
					continue
				}
				return nil, hedged, false, firstErr
			}
		case <-hedgeC:
			hedgeC = nil
			hedged = true
			metricHedges.Inc()
			launch(true)
			outstanding++
		case <-fctx.Done():
			// Attempts honor fctx, so they will drain; report the deadline
			// without waiting for them.
			return nil, hedged, false, fctx.Err()
		}
	}
}

// credential returns the consumer's store credential for a contributor,
// connecting through the broker at most once per contributor: concurrent
// requests for the same contributor coalesce behind one in-flight Connect,
// and successes are cached for the engine's lifetime.
func (e *Engine) credential(ctx context.Context, contributor string) (broker.Credential, error) {
	key := strings.ToLower(strings.TrimSpace(contributor))
	for {
		e.mu.Lock()
		if e.creds == nil {
			e.creds = make(map[string]broker.Credential)
			e.inflight = make(map[string]chan struct{})
		}
		if cred, ok := e.creds[key]; ok {
			e.mu.Unlock()
			metricCreds.With("cache").Inc()
			return cred, nil
		}
		if wait, ok := e.inflight[key]; ok {
			e.mu.Unlock()
			select {
			case <-wait:
				continue // leader finished: re-check the cache (or retry)
			case <-ctx.Done():
				return broker.Credential{}, ctx.Err()
			}
		}
		done := make(chan struct{})
		e.inflight[key] = done
		e.mu.Unlock()

		cred, err := e.Broker.ConnectCtx(ctx, e.Key, contributor)
		e.mu.Lock()
		delete(e.inflight, key)
		if err == nil {
			e.creds[key] = cred
		}
		e.mu.Unlock()
		close(done)
		if err == nil {
			metricCreds.With("connect").Inc()
		}
		return cred, err
	}
}

// store returns the dialed client for an address, caching per engine.
// The dial itself runs outside the lock: a slow peer connect must not
// block concurrent queries to other stores (or credential lookups)
// behind mu.
func (e *Engine) store(addr string) Store {
	e.mu.Lock()
	if st, ok := e.stores[addr]; ok {
		e.mu.Unlock()
		return st
	}
	e.mu.Unlock()
	st := e.Dial(addr)
	e.mu.Lock()
	defer e.mu.Unlock()
	if cached, ok := e.stores[addr]; ok {
		return cached // lost the race; keep the first connection
	}
	if e.stores == nil {
		e.stores = make(map[string]Store)
	}
	e.stores[addr] = st
	return st
}

// InvalidateCredential drops a cached store credential (e.g. after a
// denied outcome from a rotated key) so the next query re-connects.
func (e *Engine) InvalidateCredential(contributor string) {
	e.mu.Lock()
	delete(e.creds, strings.ToLower(strings.TrimSpace(contributor)))
	e.mu.Unlock()
}
