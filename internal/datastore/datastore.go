// Package datastore implements a SensorSafe remote data store (paper §5.1
// and Fig. 2): the per-contributor (or institutional, multi-contributor)
// server that ingests sensor uploads through the wave-segment optimizer,
// stores them in the embedded segment store, holds each contributor's
// privacy rules and labeled places, and answers consumer queries through
// the query/privacy processing module — every byte released passes the
// rule engine and the abstraction transform.
package datastore

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"sensorsafe/internal/abstraction"
	"sensorsafe/internal/audit"
	"sensorsafe/internal/auth"
	"sensorsafe/internal/geo"
	"sensorsafe/internal/obs"
	"sensorsafe/internal/obs/trace"
	"sensorsafe/internal/query"
	"sensorsafe/internal/recommend"
	"sensorsafe/internal/resilience"
	"sensorsafe/internal/ruleindex"
	"sensorsafe/internal/rules"
	"sensorsafe/internal/segstore"
	"sensorsafe/internal/storage"
	"sensorsafe/internal/stream"
	"sensorsafe/internal/timeutil"
	"sensorsafe/internal/walframe"
	"sensorsafe/internal/wavesegment"
)

// Hot-path metrics (paper §5.1 upload/query pipeline): how much the
// wave-segment optimizer compacts uploads, how much a consumer query
// scans, and what rule enforcement decided for every candidate span.
var (
	metricUploadBatches = obs.NewCounter("sensorsafe_datastore_uploads_total",
		"Accepted upload batches.")
	metricUploadSegments = obs.NewCounter("sensorsafe_datastore_upload_segments_total",
		"Wave segments received in upload batches, before optimization.")
	metricSegmentsMerged = obs.NewCounter("sensorsafe_datastore_segments_merged_total",
		"Wave segments eliminated by the wave-segment merge optimization.")
	metricSegmentsScanned = obs.NewCounter("sensorsafe_datastore_segments_scanned_total",
		"Stored segments scanned while answering consumer queries.")
	metricReleases = obs.NewCounterVec("sensorsafe_datastore_releases_total",
		"Release decisions after rule enforcement, per enforcement span.",
		"decision")
	metricSyncPushes = obs.NewCounterVec("sensorsafe_datastore_sync_pushes_total",
		"Replica pushes attempted against the sync target, by result.", "result")
	metricAntiEntropy = obs.NewCounterVec("sensorsafe_datastore_antientropy_total",
		"Anti-entropy reconciliation rounds, by result.", "result")
	metricStateSaveErrors = obs.NewCounter("sensorsafe_datastore_state_save_errors_total",
		"Cursor-log appends that failed (no caller to return the error to).")
	metricStateWrites = obs.NewCounter("sensorsafe_datastore_state_writes_total",
		"Full state-file rewrites (log folds and Close).")
	metricCursorLogFrames = obs.NewCounter("sensorsafe_datastore_cursor_log_frames_total",
		"Frames appended to the store's log (one per control mutation or stream change).")
)

// Errors returned by the service.
var (
	ErrNotContributor = errors.New("datastore: key does not belong to a contributor")
	ErrNotConsumer    = errors.New("datastore: key does not belong to a consumer")
	ErrWrongOwner     = errors.New("datastore: segment contributor does not match key owner")
	ErrUnknownUser    = errors.New("datastore: unknown user")
)

// SyncTarget receives privacy-rule replicas whenever a contributor's rules
// or labeled places change; the broker implements this (paper §5.2:
// "remote data stores automatically communicate with the broker to
// synchronize the privacy rules"). Replication is versioned and
// anti-entropy-based: pushes carry the store's rule-set version so the
// target can reject stale or duplicated replicas, and the digest exchange
// lets the store discover which replicas the target is missing after an
// outage.
//
// The store calls both methods with its service context, which Close
// cancels, so a hung target cannot hold up shutdown; a push also gives up
// after syncPushTimeout.
type SyncTarget interface {
	// SyncRulesCtx applies one contributor's replica at the given version.
	// Implementations must be idempotent per version and reject versions
	// older than what they already applied with an error satisfying
	// resilience.IsStale.
	SyncRulesCtx(ctx context.Context, contributor string, version uint64, ruleSet []byte, places []geo.Region) error
	// SyncDigestCtx reports every contributor this store hosts with its
	// current rule version; the target answers with the names whose
	// replicas are behind and need a full push.
	SyncDigestCtx(ctx context.Context, storeAddr string, versions map[string]uint64) ([]string, error)
}

// Directory is the broker-side contributor directory; stores push new
// contributor registrations to it (paper §4: "When the data contributors
// are first registered on their data store, they are automatically
// registered on the broker, too").
type Directory interface {
	RegisterContributorCtx(ctx context.Context, name, storeAddr string) error
}

// Options configures a store service.
type Options struct {
	// Dir is the storage directory ("" = in-memory).
	Dir string
	// MaxSegmentSamples caps merged wave segments
	// (wavesegment.DefaultMaxSamples if zero).
	MaxSegmentSamples int
	// Sync, when set, receives rule replicas on every change, and a
	// background anti-entropy round every DefaultSyncInterval exchanges a
	// version digest with it and pushes whatever it reports as stale:
	// that round delivers a replica a failed push or a crash left behind.
	Sync SyncTarget
	// Directory, when set, receives contributor registrations.
	Directory Directory
	// Name identifies this store instance (e.g. its address).
	Name string
	// SegstoreDir overrides where the persistent segment engine keeps
	// its files (default Dir/segstore). Ignored for in-memory stores.
	SegstoreDir string
	// MemtableBytes bounds the segment engine's hot tail before a
	// flush to disk (segstore default if zero).
	MemtableBytes int64
	// CompactInterval is the segment engine's background compaction
	// period (0 disables background compaction).
	CompactInterval time.Duration
}

// DefaultSyncInterval is the anti-entropy period.
const DefaultSyncInterval = 30 * time.Second

// Service is one remote data store.
type Service struct {
	opts   Options
	store  storage.Engine
	users  *auth.Registry
	trail  *audit.Trail
	stream *stream.Hub

	mu           sync.RWMutex
	contributors map[string]*contributorRecord // guarded by mu

	// logMu is the writer lock: a control mutation holds it while it
	// reads the state its record is built from, appends the record and
	// applies it, and a fold holds it while it writes the state file and
	// empties the log. Lock order: logMu, then the stream hub's locks,
	// then mu; nothing holding a hub lock or mu appends.
	logMu sync.Mutex
	log   *walframe.Log // nil for in-memory stores; guarded by logMu

	// ctx is the service's lifetime: every outbound call to the sync
	// target and directory carries it, and Close cancels it first.
	ctx      context.Context
	cancel   context.CancelFunc
	syncDone chan struct{} // nil unless the anti-entropy loop runs
}

// New opens a remote data store service.
func New(opts Options) (*Service, error) {
	if opts.MaxSegmentSamples <= 0 {
		opts.MaxSegmentSamples = wavesegment.DefaultMaxSamples
	}
	st, err := openEngine(opts)
	if err != nil {
		return nil, err
	}
	svc := &Service{
		opts:         opts,
		store:        st,
		users:        auth.NewRegistry(),
		trail:        audit.NewTrail(0),
		contributors: make(map[string]*contributorRecord),
	}
	//sslint:ignore ctxpropagate the service lifetime is the call-tree root of the store's outbound broker calls
	svc.ctx, svc.cancel = context.WithCancel(context.Background())
	svc.stream = stream.New(stream.Options{Rules: svc, OnChange: svc.logCursor})
	svc.logMu.Lock()
	err = svc.loadState()
	if err == nil && svc.log.Len() > 0 { // so a torn tail never sits in front of the next frame
		err = svc.log.Fold(svc.saveState())
	}
	if err != nil {
		svc.log.Close() // unfolded: the directory stays as New found it
	}
	svc.logMu.Unlock()
	if err != nil {
		svc.cancel()
		st.Close()
		return nil, err
	}
	if opts.Sync != nil {
		svc.syncDone = make(chan struct{})
		go svc.syncLoop()
	}
	return svc, nil
}

// Close cancels the service context (aborting any broker call in flight),
// folds the cursor log into one last state-file write, leaving the log
// empty, and releases the underlying storage. The write also captures
// stream positions advanced by uploads, which log nothing, so a graceful
// shutdown surfaces undelivered segments as a gap instead of losing them.
func (s *Service) Close() error {
	s.cancel()
	if s.syncDone != nil {
		<-s.syncDone
		s.syncDone = nil
	}
	s.logMu.Lock()
	err := errors.Join(s.log.Fold(s.saveState()), s.log.Close())
	s.logMu.Unlock()
	return errors.Join(err, s.store.Close())
}

// Name returns the store's configured name.
func (s *Service) Name() string { return s.opts.Name }

// Users exposes the registry for server wiring.
func (s *Service) Users() *auth.Registry { return s.users }

// Storage exposes the underlying segment engine (read-mostly; used by
// maintenance tooling and benchmarks).
func (s *Service) Storage() storage.Engine { return s.store }

// SegmentStoreStats reports the persistent segment engine's internals
// (file counts, levels, live/dead bytes, last compaction); ok is false
// when the service runs the in-memory engine.
func (s *Service) SegmentStoreStats() (segstore.Stats, bool) {
	if eng, ok := s.store.(*segstore.Store); ok {
		return eng.Stats(), true
	}
	return segstore.Stats{}, false
}

// RegisterContributor creates a contributor account with a fresh API key
// and an empty (deny-everything) rule set, then registers it on the
// directory within syncPushTimeout. The account is already durable, so a
// directory outage is logged, not returned: the next anti-entropy digest
// reports the contributor and the broker enters it at this store's name.
func (s *Service) RegisterContributor(name string) (auth.User, error) {
	u, err := s.register(name, auth.RoleContributor)
	if err != nil {
		return auth.User{}, err
	}
	if s.opts.Directory != nil {
		ctx, cancel := context.WithTimeout(s.ctx, syncPushTimeout)
		defer cancel()
		if err := s.opts.Directory.RegisterContributorCtx(ctx, u.Name, s.opts.Name); err != nil {
			slog.Warn("datastore: broker registration failed; the next anti-entropy round retries it",
				"store", s.opts.Name, "contributor", u.Name, "err", err)
		}
	}
	return u, nil
}

// ProvisionConsumer registers a consumer and returns only the API key; it
// satisfies the broker's StoreConn for in-process wiring. The context is
// part of the StoreConn contract (request-ID correlation) and unused here
// because no further hop exists.
func (s *Service) ProvisionConsumer(_ context.Context, name string) (auth.APIKey, error) {
	u, err := s.RegisterConsumer(name)
	if err != nil {
		return "", err
	}
	return u.Key, nil
}

// Addr returns the store's name/address for broker directories.
func (s *Service) Addr() string { return s.opts.Name }

// RegisterConsumer creates a consumer account with a fresh API key. The
// broker calls this on behalf of consumers (paper §5.4: "the registration
// process is automatically handled by the broker").
func (s *Service) RegisterConsumer(name string) (auth.User, error) {
	return s.register(name, auth.RoleConsumer)
}

// register commits a new account under a fresh API key; a contributor's
// record also holds their empty (deny-everything) policy.
func (s *Service) register(name string, role auth.Role) (auth.User, error) {
	if normName(name) == "" {
		return auth.User{}, fmt.Errorf("datastore: empty user name")
	}
	key, err := auth.NewAPIKey()
	if err != nil {
		return auth.User{}, err
	}
	u := auth.User{Name: name, Role: role, Key: key}
	rec := &logRecord{User: userRecord(u)}
	if role == auth.RoleContributor {
		rec.Policy = &contributorRecord{Name: normName(name), policy: ruleindex.Empty()}
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	if _, err := s.users.Lookup(name); err == nil {
		return auth.User{}, fmt.Errorf("%w: %s", auth.ErrDuplicateUser, name)
	}
	if err := s.commit(rec); err != nil {
		return auth.User{}, err
	}
	return u, nil
}

// RotateKey invalidates the presented API key and issues a fresh one for
// the same account — the recovery path when a key leaks (the paper's
// future-work security analysis; keys act as username and password, §5.4).
func (s *Service) RotateKey(key auth.APIKey) (auth.APIKey, error) {
	newKey, err := auth.NewAPIKey()
	if err != nil {
		return "", err
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	u, err := s.users.Authenticate(key)
	if err != nil {
		return "", err
	}
	u.Key = newKey
	if err := s.commit(&logRecord{User: userRecord(u)}); err != nil {
		return "", err
	}
	return newKey, nil
}

// authenticate resolves a key and checks the expected role.
func (s *Service) authenticate(key auth.APIKey, role auth.Role) (auth.User, error) {
	u, err := s.users.Authenticate(key)
	if err != nil {
		return auth.User{}, err
	}
	if u.Role != role {
		if role == auth.RoleContributor {
			return auth.User{}, ErrNotContributor
		}
		return auth.User{}, ErrNotConsumer
	}
	return u, nil
}

func normName(s string) string { return strings.ToLower(strings.TrimSpace(s)) }

// contributorOf returns the contributor's current record, which never
// changes once applied, so a caller may keep it; nil for a contributor
// the store does not know.
func (s *Service) contributorOf(contributor string) *contributorRecord {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.contributors[normName(contributor)]
}

// policyOf returns the contributor's current policy.
func (s *Service) policyOf(contributor string) (*ruleindex.Index, error) {
	cs := s.contributorOf(contributor)
	if cs == nil {
		return nil, fmt.Errorf("%w: %s", ErrUnknownUser, contributor)
	}
	return cs.policy, nil
}

// UploadCtx ingests a batch of wave segments for the contributor owning the
// key. Packets run through the wave-segment optimizer (merging
// timestamp-consecutive packets, §5.1), and the segment engine's Put
// extends the stream's newest stored record with a segment that continues
// it, so steady streaming still produces few large records. Returns the
// number of segments stored. The datastore.upload span joins ctx's trace.
func (s *Service) UploadCtx(ctx context.Context, key auth.APIKey, segs []*wavesegment.Segment) (written int, err error) {
	ctx, uspan, stopUpload := obs.Span(ctx, "datastore.upload")
	defer func() {
		uspan.SetAttr(trace.Int("segments", len(segs)), trace.Int("records", written))
		stopUpload(err)
	}()
	u, err := s.authenticate(key, auth.RoleContributor)
	if err != nil {
		return 0, err
	}
	for _, seg := range segs {
		if seg == nil {
			return 0, fmt.Errorf("datastore: nil segment in upload")
		}
		if seg.Contributor == "" {
			seg.Contributor = u.Name
		}
		if !strings.EqualFold(seg.Contributor, u.Name) {
			return 0, fmt.Errorf("%w: %q uploads as %q", ErrWrongOwner, u.Name, seg.Contributor)
		}
		if err := seg.Validate(); err != nil {
			return 0, err
		}
	}
	// Multi-device uploads interleave streams with different channel sets
	// (chest band vs phone); the optimizer merges only within one stream,
	// so group by channel signature first, preserving arrival order per
	// group.
	for _, group := range groupByStream(segs) {
		merged, err := wavesegment.OptimizeAll(group, s.opts.MaxSegmentSamples)
		if err != nil {
			return written, err
		}
		for _, seg := range merged {
			if _, err := s.store.Put(seg); err != nil {
				return written, err
			}
			written++
		}
		// Live subscribers get exactly the new post-merge segments: Put
		// grows a tail into a new segment, never in place, so a grown
		// tail never reaches them.
		for _, seg := range merged {
			s.stream.Publish(u.Name, seg)
		}
	}
	metricUploadBatches.Inc()
	metricUploadSegments.Add(float64(len(segs)))
	if d := len(segs) - written; d > 0 {
		metricSegmentsMerged.Add(float64(d))
	}
	return written, nil
}

// groupByStream partitions an upload batch by stream (Segment.StreamKey),
// keeping per-group arrival order and overall first-seen group order.
func groupByStream(segs []*wavesegment.Segment) [][]*wavesegment.Segment {
	index := make(map[string]int)
	var groups [][]*wavesegment.Segment
	for _, seg := range segs {
		key := seg.StreamKey()
		i, ok := index[key]
		if !ok {
			i = len(groups)
			index[key] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], seg)
	}
	return groups
}

// SetRules replaces the contributor's privacy rules from Fig. 4 JSON and
// pushes the replica to the sync target.
func (s *Service) SetRules(key auth.APIKey, ruleSetJSON []byte) error {
	u, err := s.authenticate(key, auth.RoleContributor)
	if err != nil {
		return err
	}
	rs, err := rules.UnmarshalRuleSet(ruleSetJSON)
	if err != nil {
		return err
	}
	return s.commitPolicy(u.Name, func(cur *ruleindex.Index) ([]*rules.Rule, []geo.Region) {
		return rs, cur.Places()
	})
}

// DefinePlace registers (or replaces) a labeled region in the
// contributor's policy and pushes the replica to the sync target.
func (s *Service) DefinePlace(key auth.APIKey, label string, region geo.Region) error {
	u, err := s.authenticate(key, auth.RoleContributor)
	if err != nil {
		return err
	}
	region.Label = label
	return s.commitPolicy(u.Name, func(cur *ruleindex.Index) ([]*rules.Rule, []geo.Region) {
		return cur.Engine().CompiledRules(), append(cur.Places(), region)
	})
}

// commitPolicy compiles the contributor's next policy from the rules and
// places change derives from the current one, commits it at the next
// version and replicates it.
func (s *Service) commitPolicy(contributor string, change func(cur *ruleindex.Index) ([]*rules.Rule, []geo.Region)) error {
	err := s.updateContributor(contributor, func(rec *contributorRecord) (bool, error) {
		rs, places := change(rec.policy)
		next, err := ruleindex.Compile(rs, places, rec.policy.Version()+1)
		if err != nil {
			return false, err
		}
		rec.policy = next
		rec.State, err = next.State()
		return true, err
	})
	if err != nil {
		return err
	}
	// Replicate best-effort: the change is already durable, so a broker
	// outage here is not an error. The target then still holds the older
	// version, which the next anti-entropy round's digest reports, so
	// that round pushes this one.
	_ = s.pushSync(contributor)
	return nil
}

// Policy returns the contributor's current rules, places and version,
// all read from the one compiled policy.
func (s *Service) Policy(key auth.APIKey) (ruleindex.State, error) {
	u, err := s.authenticate(key, auth.RoleContributor)
	if err != nil {
		return ruleindex.State{}, err
	}
	p, err := s.policyOf(u.Name)
	if err != nil {
		return ruleindex.State{}, err
	}
	return p.State()
}

// AssignConsumerGroups records the groups/studies a consumer belongs to for
// this contributor's group-scoped rules.
func (s *Service) AssignConsumerGroups(key auth.APIKey, consumer string, groups []string) error {
	u, err := s.authenticate(key, auth.RoleContributor)
	if err != nil {
		return err
	}
	return s.updateContributor(u.Name, func(rec *contributorRecord) (bool, error) {
		c := normName(consumer)
		if slices.Equal(rec.Groups[c], groups) {
			return false, nil
		}
		rec.Groups = maps.Clone(rec.Groups)
		if rec.Groups == nil {
			rec.Groups = make(map[string][]string)
		}
		rec.Groups[c] = append([]string(nil), groups...)
		return true, nil
	})
}

// updateContributor commits the contributor's record as edit leaves a
// copy of it; edit replaces what it changes, reports whether it changed
// anything, and a record it did not change is not committed.
func (s *Service) updateContributor(contributor string, edit func(rec *contributorRecord) (bool, error)) error {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	cur := s.contributorOf(contributor)
	if cur == nil {
		return fmt.Errorf("%w: %s", ErrUnknownUser, contributor)
	}
	rec := *cur
	if changed, err := edit(&rec); err != nil || !changed {
		return err
	}
	return s.commit(&logRecord{Policy: &rec})
}

// syncPushTimeout bounds one replica push, retries included. The change
// it carries is already durable and anti-entropy repairs a missed push,
// so a target that never answers must not hold the caller (a SetRules
// and its ingest slot) for the retry policy's whole course.
const syncPushTimeout = 5 * time.Second

// pushSync replicates the contributor's rules and places (stamped with
// the current rule version) to the sync target, if configured, within
// syncPushTimeout. A stale rejection means the target already converged
// past this version and is no error; any other failure leaves the
// replica behind for the next anti-entropy round.
func (s *Service) pushSync(contributor string) error {
	if s.opts.Sync == nil {
		return nil
	}
	p, err := s.policyOf(contributor)
	if err != nil {
		return err
	}
	ps, err := p.State()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(s.ctx, syncPushTimeout)
	defer cancel()
	err = s.opts.Sync.SyncRulesCtx(ctx, contributor, ps.RuleVersion, ps.RuleSet(), ps.Places)
	switch {
	case err == nil:
		metricSyncPushes.With("ok").Inc()
	case resilience.IsStale(err):
		metricSyncPushes.With("stale").Inc()
	default:
		metricSyncPushes.With("error").Inc()
		return err
	}
	return nil
}

// AntiEntropy performs one reconciliation round against the sync target:
// exchange a version digest and push every replica the target reports as
// behind, which covers any push a broker outage or a crash cut off.
// Returns the first error so the background loop can back off; the
// other pushes still run.
func (s *Service) AntiEntropy() error {
	if s.opts.Sync == nil {
		return nil
	}
	s.mu.RLock()
	versions := make(map[string]uint64, len(s.contributors))
	for name, cs := range s.contributors {
		versions[name] = cs.policy.Version()
	}
	s.mu.RUnlock()
	stale, err := s.opts.Sync.SyncDigestCtx(s.ctx, s.opts.Name, versions)
	for _, name := range stale {
		if perr := s.pushSync(name); perr != nil && err == nil {
			err = perr
		}
	}
	if err != nil {
		metricAntiEntropy.With("error").Inc()
		return err
	}
	metricAntiEntropy.With("ok").Inc()
	return nil
}

// syncLoop runs anti-entropy in the background every DefaultSyncInterval,
// backing off exponentially (to 8× the interval) while the target keeps
// failing so a broker outage does not become a hammering loop.
func (s *Service) syncLoop() {
	defer close(s.syncDone)
	interval := DefaultSyncInterval
	delay := interval
	for {
		t := time.NewTimer(delay)
		select {
		case <-s.ctx.Done():
			t.Stop()
			return
		case <-t.C:
		}
		if err := s.AntiEntropy(); err != nil {
			if delay < 8*interval {
				delay *= 2
			}
		} else {
			delay = interval
		}
	}
}

// QueryCtx answers a consumer's data request: scan matching records,
// clip each to the requested window and pass it through release.
// q.Limit counts records that released something, so withheld records
// neither use it up nor show in limit − answers; a record's releases
// are never split. Enforcement spans land in ctx's trace.
func (s *Service) QueryCtx(ctx context.Context, key auth.APIKey, q *query.Query) (out []*abstraction.Release, err error) {
	ctx, qspan, stopQuery := obs.Span(ctx, "datastore.query")
	defer func() {
		qspan.SetAttr(trace.Int("releases", len(out)))
		stopQuery(err)
	}()
	u, err := s.authenticate(key, auth.RoleConsumer)
	if err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	// Audit events cross-reference the query's trace: the trail answers
	// what was released, the trace answers why.
	who := audit.Event{Consumer: u.Name, Query: q.String(), TraceID: trace.IDFromContext(ctx)}
	// Each contributor's record is read once, at their first record in
	// the answer, so a rule change while it is built decides none of it.
	pinned := make(map[string]*contributorRecord)
	// Limit counts records that released something, so a withheld record
	// must not use it up. The scan stays bounded by what the loop
	// examines: it reads a page of Limit records and, while fewer than
	// Limit have released and the page was full, a page twice the size,
	// skipping the records an earlier page decided.
	sq := q.Storage()
	var decided map[storage.ID]bool
	released := 0
	for {
		results, err := s.store.ScanRefs(sq)
		if err != nil {
			return nil, err
		}
		for _, res := range results {
			if q.Limit > 0 && released == q.Limit {
				break
			}
			if decided[res.ID] {
				continue
			}
			metricSegmentsScanned.Inc()
			seg := res.Segment
			// Clip to the requested window: the scan matches any overlapping
			// record, but only samples inside [From, To) may be released.
			// The clip shares the record's rows, so it costs O(annotations).
			if !q.From.IsZero() || !q.To.IsZero() {
				if seg = seg.Slice(q.From, q.To); seg == nil {
					continue
				}
			}
			owner := normName(seg.Contributor)
			cs, ok := pinned[owner]
			if !ok {
				cs = s.contributorOf(owner)
				pinned[owner] = cs
			}
			_, espan, stopEval := obs.Span(ctx, "datastore.rule_eval")
			rels, _, _, err := s.release(who, seg, q, espan, cs)
			stopEval(err)
			if err != nil {
				return nil, err
			}
			if len(rels) > 0 {
				released++
			}
			out = append(out, rels...)
		}
		if sq.Limit == 0 || released == q.Limit || len(results) < sq.Limit {
			return out, nil
		}
		if decided == nil {
			decided = make(map[storage.ID]bool, len(results))
		}
		for _, res := range results {
			decided[res.ID] = true
		}
		sq.Limit *= 2
	}
}

// release is the store's one egress for stored data, shared by queries
// and live-stream deliveries: it enforces cs, the segment contributor's
// record as the caller read it (nil for a contributor the store does not
// know), for the consumer named in who, applies q's channel
// projection and context filter to the *released* data (so the filter
// cannot leak withheld contexts), and records every release in the audit
// trail, starting from who's consumer, query text and trace ID. span
// (nil-safe) receives the decision provenance: rule version, matched
// rule IDs, the effective allow/abstract/deny class, and one
// release.decision event per release. It returns the releases, the rule
// version that decided them, and their joint classification: raw when
// every release flowed at full fidelity, withheld when none survived.
func (s *Service) release(who audit.Event, seg *wavesegment.Segment, q *query.Query, span *trace.Span, cs *contributorRecord) ([]*abstraction.Release, uint64, audit.Outcome, error) {
	span.SetAttr(trace.String("contributor", seg.Contributor))
	if cs == nil {
		metricReleases.With("deny").Inc()
		return nil, 0, audit.OutcomeWithheld, nil // record of an unknown contributor: default deny
	}
	version := cs.policy.Version()
	span.SetAttr(trace.Int64("rule_version", int64(version)))
	rels, decisions, err := abstraction.EnforceExplained(cs.policy, who.Consumer, cs.Groups[normName(who.Consumer)], seg, geo.GridGeocoder{})
	if err != nil {
		return nil, version, audit.OutcomeWithheld, err
	}
	var out []*abstraction.Release
	outcome := audit.OutcomeWithheld
	decisionClass := "deny"
	var matched []string
	for i, rel := range rels {
		if rel = postFilter(rel, q); rel == nil {
			continue
		}
		out = append(out, rel)
		ev := auditEvent(who, q, rel, seg)
		ev.RuleVersion = version
		ev.Rules = slices.Clone(decisions[i].Matched)
		sort.Strings(ev.Rules)
		if ev.Outcome == audit.OutcomeRaw {
			metricReleases.With("allow").Inc()
			decisionClass = "allow"
		} else {
			metricReleases.With("abstract").Inc()
			if decisionClass != "allow" {
				decisionClass = "abstract"
			}
		}
		if outcome != audit.OutcomeAbstracted {
			outcome = ev.Outcome
		}
		matched = append(matched, ev.Rules...)
		span.AddEvent("release.decision",
			trace.String("outcome", ev.Outcome.String()),
			trace.String("rules", strings.Join(decisions[i].Matched, ",")),
			trace.Bool("cached", decisions[i].Cached),
			trace.String("location_granularity", rel.Location.Granularity.String()),
			trace.String("time_granularity", rel.TimeGranularity.String()))
		s.trail.Record(ev)
	}
	if len(out) == 0 {
		metricReleases.With("deny").Inc()
		ev := who
		ev.Contributor = seg.Contributor
		ev.SpanStart, ev.SpanEnd = seg.StartTime(), seg.EndTime()
		ev.Outcome = audit.OutcomeWithheld
		ev.RuleVersion = version
		s.trail.Record(ev)
	}
	sort.Strings(matched)
	span.SetAttr(trace.String("decision", decisionClass),
		trace.String("rules_matched", strings.Join(slices.Compact(matched), ",")),
		trace.Int("releases", len(out)))
	return out, version, outcome, nil
}

// auditEvent classifies one delivered release for the owner's audit trail,
// starting from who: raw when every dimension flowed at full fidelity —
// all stored channels the consumer asked for, exact coordinates, exact
// timestamps — and abstracted when enforcement held anything back.
func auditEvent(who audit.Event, q *query.Query, rel *abstraction.Release, seg *wavesegment.Segment) audit.Event {
	e := who
	e.Contributor = seg.Contributor
	e.SpanStart, e.SpanEnd = rel.Start, rel.End
	e.Outcome = audit.OutcomeAbstracted
	if rel.Segment != nil {
		e.Channels = append([]string(nil), rel.Segment.Channels...)
	}
	for _, c := range rel.Contexts {
		e.Contexts = append(e.Contexts, c.Context)
	}
	// How many channels the consumer could at most have received: the
	// stored ones, narrowed by their own channel filter (a voluntary
	// projection, not an enforcement effect).
	expected := len(seg.Channels)
	if len(q.Channels) > 0 {
		asked := 0
		for _, c := range rules.ExpandSensorNames(q.Channels) {
			if seg.HasChannel(c) {
				asked++
			}
		}
		if asked > 0 {
			expected = asked
		}
	}
	if rel.Segment != nil &&
		len(rel.Segment.Channels) == expected &&
		rel.Location.Granularity == geo.LocCoordinates &&
		rel.TimeGranularity == timeutil.GranMillisecond {
		e.Outcome = audit.OutcomeRaw
	}
	return e
}

// Audit returns the contributor's access trail, newest first.
func (s *Service) Audit(key auth.APIKey, f audit.Filter) ([]audit.Event, error) {
	u, err := s.authenticate(key, auth.RoleContributor)
	if err != nil {
		return nil, err
	}
	f.Contributor = u.Name
	return s.trail.Events(f), nil
}

// AuditSummary aggregates the contributor's trail per consumer.
func (s *Service) AuditSummary(key auth.APIKey) ([]audit.ConsumerSummary, error) {
	u, err := s.authenticate(key, auth.RoleContributor)
	if err != nil {
		return nil, err
	}
	return s.trail.Summarize(u.Name), nil
}

// postFilter applies the query's channel projection and context filter to a
// release. Returns nil when nothing relevant remains.
func postFilter(rel *abstraction.Release, q *query.Query) *abstraction.Release {
	if len(q.Channels) > 0 && rel.Segment != nil {
		rel.Segment = rel.Segment.Project(rules.ExpandSensorNames(q.Channels))
	}
	if len(q.Contexts) > 0 {
		match := false
		for _, want := range q.Contexts {
			for _, have := range rel.Contexts {
				if strings.EqualFold(want, have.Context) {
					match = true
					break
				}
			}
		}
		if !match {
			return nil
		}
	}
	if rel.Empty() {
		return nil
	}
	return rel
}

// QueryOwn lets a contributor review their own raw data (the paper's
// web-UI "view their own data" path); no enforcement applies.
func (s *Service) QueryOwn(key auth.APIKey, q *query.Query) ([]*wavesegment.Segment, error) {
	u, err := s.authenticate(key, auth.RoleContributor)
	if err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	sq := q.Storage()
	sq.Contributor = u.Name // owners see only their own data
	results, err := s.store.ScanRefs(sq)
	if err != nil {
		return nil, err
	}
	// Callers (core.Contributor.ReviewData) hold on to what they get, so
	// they get copies.
	out := make([]*wavesegment.Segment, len(results))
	for i, r := range results {
		out[i] = r.Segment.Clone()
	}
	return out, nil
}

// RulesForCtx returns the compiled rule engine for a contributor; the
// phone simulator uses this for privacy-rule-aware collection (§5.3), and
// tests probe it directly. Returns nil when the contributor has no rules.
// The context is part of the phone.Store contract and unused here
// because no further hop exists.
func (s *Service) RulesForCtx(_ context.Context, key auth.APIKey) (*rules.Engine, error) {
	u, err := s.authenticate(key, auth.RoleContributor)
	if err != nil {
		return nil, err
	}
	p, err := s.policyOf(u.Name)
	if err != nil || p.Len() == 0 {
		return nil, err
	}
	return p.Engine(), nil
}

// RuleIndexStats reports every contributor's compiled-index state, keyed
// by contributor name, for the /debug/ruleindex endpoint and consumercli
// rulestats. Contributors without rules are omitted.
func (s *Service) RuleIndexStats() map[string]ruleindex.Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]ruleindex.Stats)
	for name, st := range s.contributors {
		if st.policy.Len() > 0 {
			out[name] = st.policy.Stats()
		}
	}
	return out
}

// SegmentCount reports the number of stored records (benchmark support).
func (s *Service) SegmentCount() int { return s.store.Count() }

// Recommend mines the contributor's stored data for privacy-rule
// suggestions (the §6 review step, automated): sensitive contexts that
// concentrate in identifiable situations or labeled places.
func (s *Service) Recommend(key auth.APIKey, opts recommend.Options) ([]recommend.Suggestion, error) {
	u, err := s.authenticate(key, auth.RoleContributor)
	if err != nil {
		return nil, err
	}
	results, err := s.store.ScanRefs(storage.Query{Contributor: u.Name})
	if err != nil {
		return nil, err
	}
	segs := make([]*wavesegment.Segment, len(results))
	for i, r := range results {
		segs[i] = r.Segment
	}
	if opts.Gazetteer == nil {
		if p, err := s.policyOf(u.Name); err == nil {
			opts.Gazetteer = p.Engine().Gazetteer()
		}
	}
	return recommend.Analyze(segs, opts), nil
}
