package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sensorsafe/internal/abstraction"
	"sensorsafe/internal/audit"
	"sensorsafe/internal/auth"
	"sensorsafe/internal/httpapi"
	"sensorsafe/internal/query"
	"sensorsafe/internal/segstore"
	"sensorsafe/internal/wavesegment"
)

// The end-to-end run: the shipped storeserver (and, for live_mixed,
// brokerserver) as child processes with default flags and segstore on disk,
// driven over loopback through the repo's typed clients.

// setupsPerRun is how often a run sets its stack up; setup_s is the median.
const setupsPerRun = 3

// recoveriesPerRun is how often a run kills and restarts the store;
// recovery_s is the median.
const recoveriesPerRun = 3

// healthyWait bounds the wait for the store's admission controller to
// report "healthy" after a restart; past the default 30 s compaction
// period any post-ingest L0 debt has been worked off.
const healthyWait = 45 * time.Second

type opKind uint8

const (
	opUpload opKind = iota
	opQuery
	opSetRules
	opSearch
	opDelivery // one live segment reaching the subscriber; not an issued op
	numOpKinds
)

var opKindNames = [numOpKinds]string{"upload", "query", "set_rules", "search", "delivery"}

// opRec is one measured operation.
type opRec struct {
	kind  opKind
	start time.Time     // closed loop: when it was sent; open loop: when it was due
	lat   time.Duration // start to the successful response in hand
	late  time.Duration // open loop: how long after its due time it was first sent
	rows  int           // sample rows moved
	sheds int           // 429 answers before it was admitted
	eve   bool          // sent by eve, whom no rule names: any row is a leak
	ok    bool
	wrong bool // answered, but not with what the inputs say it must be
}

// stack is one running system under test plus what the bench knows about
// its contents.
type stack struct {
	e         *env
	workload  string
	n         int    // distinguishes the stacks of one run
	dir       string // the store's -dir
	store     *child
	broker    *child
	owners    []auth.User // data-bearing contributor accounts, by index
	bob       auth.APIKey // store key; for live_mixed, as vaulted by the broker
	eve       auth.APIKey
	carol     auth.APIKey
	brokerBob auth.APIKey
	subID     string  // live_mixed: bob's subscription on contributor B
	connectMS float64 // live_mixed: median broker Connect during set-up

	mu    sync.Mutex
	acked []int // batches acknowledged per contributor; guarded by mu
}

func (st *stack) storeArgs() []string {
	args := []string{"-dir", st.dir}
	if st.broker != nil {
		args = append(args, "-broker", st.broker.addr)
	}
	return args
}

func (st *stack) logName(proc string) string { return st.workload + "." + proc }

func (st *stack) close() {
	if st.store != nil {
		st.store.kill()
	}
	if st.broker != nil {
		st.broker.kill()
	}
	_ = os.RemoveAll(st.dir) // scratch; env.cleanup removes the parent as well
}

// contributorSession says which recorded session contributor c replays.
func contributorSession(in *inputs, c int) *session { return in.sessions[c%fixtureContributors] }

// timelineBatch returns contributor c's k-th upload batch: its session is
// replayed back to back, each replay shifted by the session length.
func timelineBatch(in *inputs, c, k int) []*wavesegment.Segment {
	s := contributorSession(in, c)
	return s.batch(k%s.batches(), time.Duration(k/s.batches())*s.length)
}

// timelineRows counts the rows contributor c holds in [from, to) once its
// first k batches are stored.
func timelineRows(in *inputs, c, k int, from, to time.Time) int {
	s := contributorSession(in, c)
	n := 0
	for rep := 0; rep*s.batches() < k; rep++ {
		shift := time.Duration(rep) * s.length
		packets := (k - rep*s.batches()) * batchPackets
		if packets > len(s.spans) {
			packets = len(s.spans)
		}
		n += s.rowsIn(from.Add(-shift), to.Add(-shift), packets)
	}
	return n
}

// timelineTotal counts all rows in contributor c's first k batches.
func timelineTotal(in *inputs, c, k int) int {
	s := contributorSession(in, c)
	n := (k / s.batches()) * s.rows
	for b := 0; b < k%s.batches(); b++ {
		n += s.batchRows(b)
	}
	return n
}

// timelineEnd is the instant just past contributor c's newest stored sample.
func timelineEnd(in *inputs, c, k int) time.Time {
	segs := timelineBatch(in, c, k-1)
	end := segs[0].EndTime()
	for _, p := range segs[1:] {
		if p.EndTime().After(end) {
			end = p.EndTime()
		}
	}
	return end
}

// setup brings one stack up to the point where the first measured op can be
// sent: binaries healthy, accounts and rules in place, and for the read
// workloads the fixture ingested and compacted and (for query_point) the
// audit trail aged to its limit.
func setup(ctx context.Context, e *env, in *inputs, workload string, n int) (st *stack, err error) {
	st = &stack{e: e, workload: workload, n: n, dir: filepath.Join(e.work, fmt.Sprintf("%s-%d", workload, n))}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	if err := os.MkdirAll(st.dir, 0o755); err != nil {
		return nil, err
	}
	if workload == "live_mixed" {
		if st.broker, err = e.start(ctx, "broker", st.logName("broker"), 0); err != nil {
			return nil, err
		}
	}
	if st.store, err = e.start(ctx, "store", st.logName("store"), 0, st.storeArgs()...); err != nil {
		return nil, err
	}
	if err := st.populate(ctx, in); err != nil {
		return nil, err
	}
	if workload == "ingest_bulk" || workload == "live_mixed" {
		return st, nil
	}

	// The fixture: every contributor's whole session, two phones; then the
	// store under test takes over the compacted directory.
	if err := st.ingestFixture(ctx, in); err != nil {
		return nil, err
	}
	if err := st.restartCompacted(ctx); err != nil {
		return nil, err
	}
	if workload == "query_point" {
		if err := st.age(ctx, in); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// populate creates the workload's accounts and installs their rules, all
// through the servers' HTTP APIs.
func (st *stack) populate(ctx context.Context, in *inputs) error {
	contributors := fixtureContributors
	switch st.workload {
	case "ingest_bulk":
		contributors = bulkContributors
	case "live_mixed":
		contributors = 2 // A flips its rules, B is streamed
	}
	sc, _ := newStoreClient(st.store.addr)
	st.mu.Lock()
	st.acked = make([]int, contributors)
	st.mu.Unlock()
	for c := 0; c < contributors; c++ {
		u, err := registerContributor(ctx, sc, in, contributorName(c), c%4)
		if err != nil {
			return err
		}
		st.owners = append(st.owners, u)
	}
	if st.workload == "live_mixed" {
		return st.populateLive(ctx, sc, in)
	}
	for name, key := range map[string]*auth.APIKey{"bob": &st.bob, "eve": &st.eve, "carol": &st.carol} {
		u, err := sc.RegisterCtx(ctx, name, "consumer")
		if err != nil {
			return err
		}
		*key = u.Key
	}
	return nil
}

// registerContributor creates the account, labels the place the fig4 rule
// refers to, and installs rule set rs.
func registerContributor(ctx context.Context, sc *httpapi.StoreClient, in *inputs, name string, rs int) (auth.User, error) {
	u, err := sc.RegisterCtx(ctx, name, "contributor")
	if err != nil {
		return u, err
	}
	if ruleSetNames[rs] == "fig4" {
		if err := sc.DefinePlaceCtx(ctx, u.Key, in.place.Label, in.place); err != nil {
			return u, err
		}
	}
	return u, sc.SetRulesCtx(ctx, u.Key, in.rules[rs])
}

// directoryContributors is how many data-less contributors with rules the
// broker's search has to evaluate in live_mixed.
const directoryContributors = 64

func (st *stack) populateLive(ctx context.Context, sc *httpapi.StoreClient, in *inputs) error {
	for i := 0; i < directoryContributors; i++ {
		if _, err := registerContributor(ctx, sc, in, fmt.Sprintf("dir-%02d", i), i%4); err != nil {
			return err
		}
	}
	// A starts out allowing bob with the rule set the flips alternate.
	if err := sc.SetRulesCtx(ctx, st.owners[0].Key, bobFlip(true)); err != nil {
		return err
	}
	// B carries the plain allow set whatever its index says.
	if err := sc.SetRulesCtx(ctx, st.owners[1].Key, in.rules[0]); err != nil {
		return err
	}
	bc := newBrokerClient(st.broker.addr)
	bob, err := bc.RegisterConsumerCtx(ctx, "bob")
	if err != nil {
		return err
	}
	st.brokerBob = bob.Key
	var connects []float64
	for c := 0; c < 2; c++ {
		begin := time.Now()
		cred, err := bc.ConnectCtx(ctx, bob.Key, contributorName(c))
		if err != nil {
			return err
		}
		connects = append(connects, ms(time.Since(begin)))
		st.bob = cred.Key
	}
	st.connectMS = median(connects)
	eve, err := sc.RegisterCtx(ctx, "eve", "consumer")
	if err != nil {
		return err
	}
	st.eve = eve.Key
	sub, err := sc.SubscribeCtx(ctx, st.bob, contributorName(1), nil)
	if err != nil {
		return err
	}
	st.subID = sub.ID
	return nil
}

// ingestFixture uploads every fixture contributor's session, phone p
// taking contributors p, p+2, ...
func (st *stack) ingestFixture(ctx context.Context, in *inputs) error {
	errs := make(chan error, 2)
	for p := 0; p < 2; p++ {
		go func(p int) {
			sc, _ := newStoreClient(st.store.addr)
			for c := p; c < fixtureContributors; c += 2 {
				s := in.sessions[c]
				for b := 0; b < s.batches(); b++ {
					if _, err := sc.UploadCtx(ctx, st.owners[c].Key, s.batch(b, 0)); err != nil {
						errs <- fmt.Errorf("bench: fixture upload: %w", err)
						return
					}
					st.ack(c)
				}
			}
			errs <- nil
		}(p)
	}
	return errors.Join(<-errs, <-errs)
}

func (st *stack) ack(c int) {
	st.mu.Lock()
	st.acked[c]++
	st.mu.Unlock()
}

func (st *stack) ackedBatches(c int) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.acked[c]
}

// age has carol read until the store has recorded audit.DefaultLimit
// events, the state every store older than a day is in. Each release carol
// receives is one audit event. Two readers take whole ranges while there is
// room for them; then one reader tops the trail up with ever narrower
// windows, because once the trail is full each further event costs
// milliseconds and a whole-range read past the limit would take seconds.
func (st *stack) age(ctx context.Context, in *inputs) error {
	perRead := len(in.sessions[0].packets) // a whole-range read records about one event per packet
	var mu sync.Mutex
	events := 0
	errs := make(chan error, 2)
	for p := 0; p < 2; p++ {
		go func(p int) {
			sc, _ := newStoreClient(st.store.addr)
			for c := p; ; c = (c + 2) % fixtureContributors {
				mu.Lock()
				room := audit.DefaultLimit-events > 3*perRead
				if room {
					events += perRead // reserved before the read, corrected after
				}
				mu.Unlock()
				if !room {
					errs <- nil
					return
				}
				rels, err := sc.QueryCtx(ctx, st.carol, &query.Query{Contributor: contributorName(c)})
				if err != nil {
					errs <- fmt.Errorf("bench: ageing query: %w", err)
					return
				}
				if len(rels) == 0 {
					errs <- errors.New("bench: ageing query released nothing; the trail cannot fill")
					return
				}
				mu.Lock()
				events += len(rels) - perRead
				mu.Unlock()
			}
		}(p)
	}
	if err := errors.Join(<-errs, <-errs); err != nil {
		return err
	}
	sc, _ := newStoreClient(st.store.addr)
	s := in.sessions[0]
	for audit.DefaultLimit-events > 16 {
		// Nine tenths of what is missing, as a window of contributor 0.
		packets := (audit.DefaultLimit - events) * 9 / 10
		to := sessionStart.Add(s.length)
		if packets < len(s.spans) {
			to = s.spans[packets].start
		}
		rels, err := sc.QueryCtx(ctx, st.carol, &query.Query{Contributor: contributorName(0), From: sessionStart, To: to})
		if err != nil {
			return fmt.Errorf("bench: ageing query: %w", err)
		}
		if len(rels) == 0 {
			return errors.New("bench: ageing query released nothing; the trail cannot fill")
		}
		events += len(rels)
	}
	return nil
}

// helperCompactEvery is the one non-default flag value the bench passes,
// and only to a store process that is not being measured; see
// restartCompacted.
const helperCompactEvery = "250ms"

// restartCompacted leaves st.store running with default flags on a
// directory whose L0 debt has been compacted away. A store compacts on a
// timer only (every 30 s by default), and from eight L0 files on its
// admission controller sheds every read until the timer fires; sixteen
// upload batches make one L0 file. The reads being measured belong to a
// store that has been up for a while, so the waiting is done by a helper
// process with a short timer: the running store is stopped gracefully,
// the helper compacts, and a store with default flags takes over. It is
// used twice per run: after the read workloads' fixture has been ingested,
// and before the final read-back of what the store acknowledged.
func (st *stack) restartCompacted(ctx context.Context) error {
	st.store.stop()
	if err := st.restart(ctx, "-compact-interval", helperCompactEvery); err != nil {
		return err
	}
	deadline := time.Now().Add(healthyWait)
	for {
		data, err := httpGet(ctx, st.store.addr+"/debug/segstore")
		if err != nil {
			return err
		}
		var stats segstore.Stats
		if err := json.Unmarshal(data, &stats); err != nil {
			return err
		}
		l0 := 0
		for _, lv := range stats.Levels {
			if lv.Level == 0 {
				l0 = lv.Files
			}
		}
		if l0 < stats.L0Threshold && stats.SealedMemtables == 0 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: %d L0 files still not compacted after %v", l0, healthyWait)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
	st.store.stop()
	if err := st.restart(ctx); err != nil {
		return err
	}
	return waitHealthy(ctx, st.store)
}

// restart starts a store on the directory and port of the one that was just
// stopped or killed. Until the new process is healthy st.store stays the old
// one, so that after a failed restart there is still a child to stop and a
// log to quote.
func (st *stack) restart(ctx context.Context, extra ...string) error {
	c, err := st.e.start(ctx, "store", st.logName("store"), st.store.port, append(st.storeArgs(), extra...)...)
	if err != nil {
		return err
	}
	st.store = c
	return nil
}

// waitHealthy polls /healthz until the admission controller reports
// "healthy", so that no measured read is shed for debt the set-up left.
func waitHealthy(ctx context.Context, c *child) error {
	sc, _ := newStoreClient(c.addr)
	deadline := time.Now().Add(healthyWait)
	for {
		h, err := sc.HealthCtx(ctx)
		if err == nil && h.Degradation == "healthy" {
			return nil
		}
		if err := c.exited(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: store still %q after %v (last error: %v)", h.Degradation, healthyWait, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// releasedRows counts the sample rows a consumer received.
func releasedRows(rels []*abstraction.Release) int {
	n := 0
	for _, r := range rels {
		if r.Segment != nil {
			n += r.Segment.NumSamples()
		}
	}
	return n
}

// settle brings the store's memtable to about half full with unmeasured
// uploads to contributor 0, watching /debug/segstore. The store counts
// memtable fill as admission pressure and flushes only when a write crosses
// the budget, so a store killed with a nearly full memtable replays it and
// then sheds every read until someone writes again; half full also makes
// each run replay a WAL tail of the same size.
func (st *stack) settle(ctx context.Context, in *inputs) error {
	sc, _ := newStoreClient(st.store.addr)
	for i := 0; i < 400; i++ {
		data, err := httpGet(ctx, st.store.addr+"/debug/segstore")
		if err != nil {
			return err
		}
		var stats segstore.Stats
		if err := json.Unmarshal(data, &stats); err != nil {
			return err
		}
		fill := float64(stats.MemtableBytes) / float64(max(stats.MemtableBudget, 1))
		if fill >= 0.4 && fill <= 0.6 && stats.SealedMemtables == 0 {
			return nil
		}
		if _, err := sc.UploadCtx(ctx, st.owners[0].Key, timelineBatch(in, 0, st.ackedBatches(0))); err != nil {
			return err
		}
		st.ack(0)
	}
	return errors.New("bench: memtable never settled at half full")
}
