// Package broker implements the SensorSafe broker (paper §5.2): the
// dedicated server that makes a fleet of distributed remote data stores
// manageable. It keeps the directory of contributors and their store
// addresses, replicates every contributor's privacy rules (pushed by the
// stores on change) so consumers can search for contributors whose rules
// share enough data for a study, automates consumer registration on stores
// and vaults the resulting API keys, and manages consumer studies/groups.
// Sensor data never flows through the broker — consumers download directly
// from the stores (§4: "The broker is not a performance bottleneck").
package broker

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"sensorsafe/internal/auth"
	"sensorsafe/internal/geo"
	"sensorsafe/internal/obs"
	"sensorsafe/internal/obs/trace"
	"sensorsafe/internal/resilience"
	"sensorsafe/internal/ruleindex"
	"sensorsafe/internal/walframe"
)

// StoreConn is the broker's handle to one remote data store, used to
// automate consumer registration (§5.4). In-process deployments adapt
// *datastore.Service; networked ones use the HTTP client.
type StoreConn interface {
	// Addr returns the store's address (shown in the directory).
	Addr() string
	// ProvisionConsumer registers a consumer on the store and returns the
	// store-local API key. The context carries the request ID of the
	// consumer's connect call so broker→store hops stay correlated.
	ProvisionConsumer(ctx context.Context, name string) (auth.APIKey, error)
}

// Broker metrics.
var (
	metricDirectorySize = obs.NewGauge("sensorsafe_broker_directory_size",
		"Contributors currently in the broker directory.")
	metricProvisions = obs.NewCounterVec("sensorsafe_broker_provisions_total",
		"Consumer credentials provisioned on stores, by result.", "result")
	metricReplicaStale = obs.NewGauge("sensorsafe_broker_replica_stale",
		"Contributors whose store reports a newer rule version than the broker replica holds.")
	metricSyncRejects = obs.NewCounterVec("sensorsafe_broker_sync_rejects_total",
		"Rule replica pushes rejected, by reason.", "reason")
)

// Errors returned by the broker.
var (
	ErrUnknownContributor = errors.New("broker: unknown contributor")
	ErrUnknownStore       = errors.New("broker: unknown store")
	ErrUnknownList        = errors.New("broker: unknown list")
	ErrUnknownStudy       = errors.New("broker: unknown study")
)

// ContributorInfo is one directory entry.
type ContributorInfo struct {
	Name      string `json:"name"`
	StoreAddr string `json:"storeAddr"`
	RuleCount int    `json:"ruleCount"`
}

// Credential pairs a store address with the consumer's API key for it.
type Credential struct {
	StoreAddr string      `json:"storeAddr"`
	Key       auth.APIKey `json:"key"`
}

type contributorEntry struct {
	Name      string `json:"name"`
	StoreAddr string `json:"storeAddr,omitempty"`
	// State is the applied replica at its version, policy it compiled
	// (the empty policy at version 0 until the first push), which search
	// probes. StoreVersion is the highest version the contributor's store
	// has *claimed* (via a push or a digest): StoreVersion >
	// policy.Version() means the replica is stale and anti-entropy owes
	// us a push. Persisting both means a restart still knows it.
	ruleindex.State
	StoreVersion uint64 `json:"storeVersion,omitempty"`
	policy       *ruleindex.Index
	syncedAt     time.Time
}

type consumerEntry struct {
	Lists  map[string][]string    `json:"lists,omitempty"`
	Keys   map[string]auth.APIKey `json:"keys,omitempty"`   // store addr → key
	Groups []string               `json:"groups,omitempty"` // studies joined
}

// Service is a broker instance. Safe for concurrent use.
type Service struct {
	users *auth.Registry
	web   *auth.Passwords
	dir   string // persistence directory ("" = in-memory)
	// logMu is the writer lock: a mutation holds it while it reads the
	// state its frame is built from, appends the frame and applies it,
	// and a fold holds it while it writes the state file and empties the
	// log. Lock order: logMu, then mu; nothing holding mu appends.
	logMu sync.Mutex
	log   *walframe.Log // nil for an in-memory broker; guarded by logMu

	mu           sync.RWMutex
	contributors map[string]*contributorEntry // guarded by mu
	consumers    map[string]*consumerEntry    // guarded by mu
	stores       map[string]StoreConn         // guarded by mu
	studies      map[string]map[string]bool   // study → consumer set; guarded by mu
	rosters      map[string]map[string]string // study → norm contributor → display name; guarded by mu
	dial         func(addr string) StoreConn  // guarded by mu
	// provisioning marks each (consumer, store) pair a Connect is
	// provisioning; the channel closes when it is done. guarded by mu
	provisioning map[provision]chan struct{}
}

// provision names a consumer, by normalized name, on a store.
type provision struct{ consumer, store string }

// New returns an empty broker.
func New() *Service {
	return &Service{
		users:        auth.NewRegistry(),
		web:          auth.NewPasswords(0),
		contributors: make(map[string]*contributorEntry),
		consumers:    make(map[string]*consumerEntry),
		stores:       make(map[string]StoreConn),
		studies:      make(map[string]map[string]bool),
		rosters:      make(map[string]map[string]string),
		provisioning: make(map[provision]chan struct{}),
	}
}

// Users exposes the broker's account registry for server wiring.
func (s *Service) Users() *auth.Registry { return s.users }

// Web exposes the password/session store for the web UI layer.
func (s *Service) Web() *auth.Passwords { return s.web }

func norm(s string) string { return strings.ToLower(strings.TrimSpace(s)) }

// RegisterStore attaches a remote data store connection.
func (s *Service) RegisterStore(conn StoreConn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stores[conn.Addr()] = conn
}

// SetStoreDialer installs a fallback that connects to stores by address
// when no connection was registered explicitly. The HTTP layer uses this
// to dial stores by their URL, so a broker restart (or a store it has
// never spoken to) does not break consumer provisioning.
func (s *Service) SetStoreDialer(dial func(addr string) StoreConn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dial = dial
}

// RegisterContributor records a contributor and the store holding their
// data. Stores call this when a contributor first registers (paper §4:
// "they are automatically registered on the broker, too"). Like SyncRules
// and SyncDigest it takes the caller's context, unused here because no
// further hop exists.
func (s *Service) RegisterContributor(_ context.Context, name, storeAddr string) error {
	key := norm(name)
	if key == "" {
		return fmt.Errorf("broker: empty contributor name")
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	s.mu.RLock()
	e, ok := s.contributorLocked(name)
	s.mu.RUnlock()
	if ok && e.StoreAddr == storeAddr {
		return nil
	}
	e.StoreAddr = storeAddr
	f := frame()
	f.Contributors[key] = e
	return s.commit(f)
}

// SyncRules receives a contributor's rule replica stamped with the
// store's rule-set version (datastore.SyncTarget's push). Unknown
// contributors are registered implicitly (with an empty store address
// until RegisterContributor supplies one). Versions are monotonic per
// contributor: a push older than the applied replica is rejected with
// resilience.ErrStaleVersion (the sender should drop it — the broker has
// already converged past it), and a push equal to the applied version is
// an idempotent no-op, so retried or duplicated syncs cannot roll the
// replica backwards.
func (s *Service) SyncRules(_ context.Context, contributor string, version uint64, ruleSetJSON []byte, places []geo.Region) error {
	// An absent rule set is malformed, not empty: the store pushes an
	// empty rule set as [].
	if len(ruleSetJSON) == 0 {
		metricSyncRejects.With("malformed").Inc()
		return fmt.Errorf("broker: rule replica for %s has no rule set", contributor)
	}
	policy, err := ruleindex.Load(ruleindex.State{Rules: ruleSetJSON, Places: places, RuleVersion: version})
	if err != nil {
		metricSyncRejects.With("malformed").Inc()
		return fmt.Errorf("broker: bad rule replica for %s: %w", contributor, err)
	}
	ps, err := policy.State()
	if err != nil {
		return err
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	s.mu.RLock()
	e, _ := s.contributorLocked(contributor)
	s.mu.RUnlock()
	applied := e.policy.Version()
	if version < applied {
		metricSyncRejects.With("stale").Inc()
		return fmt.Errorf("broker: replica for %s at version %d, push carries %d: %w",
			contributor, applied, version, resilience.ErrStaleVersion)
	}
	if version == applied && version > 0 {
		// Duplicate of the already-applied version (a retry whose first
		// attempt landed): converged, nothing to do.
		return nil
	}
	e.State, e.policy, e.syncedAt = ps, policy, now()
	e.StoreVersion = max(e.StoreVersion, version)
	f := frame()
	f.Contributors[norm(contributor)] = e
	return s.commit(f)
}

// SyncDigest is the anti-entropy exchange: the store reports every
// contributor it hosts with its current rule-set version, and the broker
// answers with the names whose replicas are behind and need a full push.
// The digest also heals directory drift — contributors the broker has
// never heard of (lost registration) are created with the reporting
// store's address, and missing store addresses are backfilled.
func (s *Service) SyncDigest(_ context.Context, storeAddr string, versions map[string]uint64) ([]string, error) {
	var stale []string
	f := frame()
	s.logMu.Lock()
	defer s.logMu.Unlock()
	s.mu.RLock()
	for name, v := range versions {
		key := norm(name)
		cur, known := f.Contributors[key] // met before, spelled another way
		if !known {
			cur, known = s.contributorLocked(name)
		}
		next := cur
		if next.StoreAddr == "" {
			next.StoreAddr = storeAddr
		}
		next.StoreVersion = max(next.StoreVersion, v)
		if next.StoreVersion > next.policy.Version() {
			stale = append(stale, next.Name)
		}
		if !known || next.StoreAddr != cur.StoreAddr || next.StoreVersion != cur.StoreVersion {
			f.Contributors[key] = next
		}
	}
	s.mu.RUnlock()
	sort.Strings(stale)
	if len(f.Contributors) > 0 {
		if err := s.commit(f); err != nil {
			return stale, err
		}
	}
	return stale, nil
}

// recomputeStaleLocked refreshes the staleness gauge; caller holds s.mu.
func (s *Service) recomputeStaleLocked() {
	n := 0
	for _, e := range s.contributors {
		if e.StoreVersion > e.policy.Version() {
			n++
		}
	}
	metricReplicaStale.Set(float64(n))
}

// ReplicaStatus describes one contributor's replica freshness.
type ReplicaStatus struct {
	Name         string    `json:"name"`
	StoreAddr    string    `json:"storeAddr,omitempty"`
	Version      uint64    `json:"version"`
	StoreVersion uint64    `json:"storeVersion"`
	Stale        bool      `json:"stale"`
	SyncedAt     time.Time `json:"syncedAt,omitempty"`
}

// Replicas reports per-contributor replica staleness, sorted by name —
// the ops view behind the broker_replica_stale gauge.
func (s *Service) Replicas() []ReplicaStatus {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]ReplicaStatus, 0, len(s.contributors))
	for _, e := range s.contributors {
		out = append(out, ReplicaStatus{
			Name:         e.Name,
			StoreAddr:    e.StoreAddr,
			Version:      e.policy.Version(),
			StoreVersion: e.StoreVersion,
			Stale:        e.StoreVersion > e.policy.Version(),
			SyncedAt:     e.syncedAt,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// RegisterConsumer creates a consumer account on the broker.
func (s *Service) RegisterConsumer(name string) (auth.User, error) {
	if norm(name) == "" {
		return auth.User{}, fmt.Errorf("broker: empty consumer name")
	}
	key, err := auth.NewAPIKey()
	if err != nil {
		return auth.User{}, err
	}
	u := auth.User{Name: name, Role: auth.RoleConsumer, Key: key, Registered: time.Now()}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	if _, err := s.users.Lookup(name); err == nil {
		return auth.User{}, fmt.Errorf("%w: %s", auth.ErrDuplicateUser, name)
	}
	f := frame()
	f.Users = []auth.User{u}
	f.Consumers[norm(name)] = consumerEntry{}
	if err := s.commit(f); err != nil {
		return auth.User{}, err
	}
	return u, nil
}

func (s *Service) authConsumer(key auth.APIKey) (auth.User, *consumerEntry, error) {
	u, err := s.users.Authenticate(key)
	if err != nil {
		return auth.User{}, nil, err
	}
	s.mu.RLock()
	e := s.consumers[norm(u.Name)]
	s.mu.RUnlock()
	if e == nil {
		return auth.User{}, nil, fmt.Errorf("broker: consumer state missing for %s", u.Name)
	}
	return u, e, nil
}

// Directory lists registered contributors.
func (s *Service) Directory(key auth.APIKey) ([]ContributorInfo, error) {
	if _, _, err := s.authConsumer(key); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]ContributorInfo, 0, len(s.contributors))
	for _, e := range s.contributors {
		out = append(out, ContributorInfo{Name: e.Name, StoreAddr: e.StoreAddr, RuleCount: e.policy.Len()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Connect provisions (or returns the vaulted) API key for the consumer on
// the contributor's store, automating the per-store registration the paper
// describes in §5.4. The context's request ID and trace travel with the
// provisioning call to the store, so broker→store provisioning shows up
// as one subtree of the consumer's trace.
func (s *Service) Connect(ctx context.Context, key auth.APIKey, contributor string) (cred Credential, err error) {
	ctx, cspan, stopConnect := obs.Span(ctx, "broker.connect")
	cspan.SetAttr(trace.String("contributor", contributor))
	defer func() {
		cspan.SetAttr(trace.String("store", cred.StoreAddr))
		stopConnect(err)
	}()
	u, e, err := s.authConsumer(key)
	if err != nil {
		return Credential{}, err
	}
	// One Connect provisions a (consumer, store) pair, since the store
	// registers a name once: any other waits for it outside mu, then
	// reads the vault again.
	var p provision
	var done chan struct{}
	for {
		s.mu.Lock()
		ce, ok := s.contributors[norm(contributor)]
		if !ok {
			s.mu.Unlock()
			return Credential{}, fmt.Errorf("%w: %s", ErrUnknownContributor, contributor)
		}
		p = provision{norm(u.Name), ce.StoreAddr}
		k, vaulted := e.Keys[p.store]
		busy, inFlight := s.provisioning[p]
		if !vaulted && !inFlight {
			done = make(chan struct{})
			s.provisioning[p] = done
		}
		s.mu.Unlock()
		if vaulted {
			cspan.SetAttr(trace.Bool("vaulted", true))
			return Credential{StoreAddr: p.store, Key: k}, nil
		}
		if !inFlight {
			break
		}
		select {
		case <-busy:
		case <-ctx.Done():
			return Credential{}, ctx.Err()
		}
	}
	defer func() {
		s.mu.Lock()
		delete(s.provisioning, p)
		s.mu.Unlock()
		close(done)
	}()
	addr := p.store
	var conn StoreConn
	if addr != "" {
		// Snapshot the dial hook and the cache under the lock, but run the
		// dial itself unlocked: a slow or hung connect must not stall every
		// other broker operation behind mu.
		s.mu.RLock()
		dial := s.dial
		conn = s.stores[addr]
		s.mu.RUnlock()
		if conn == nil && dial != nil {
			if c := dial(addr); c != nil {
				s.mu.Lock()
				if cached := s.stores[addr]; cached != nil {
					conn = cached // lost the race; keep the first connection
				} else {
					s.stores[addr] = c
					conn = c
				}
				s.mu.Unlock()
			}
		}
	}
	if conn == nil {
		return Credential{}, fmt.Errorf("%w: %s", ErrUnknownStore, addr)
	}
	storeKey, err := conn.ProvisionConsumer(ctx, u.Name)
	if err != nil {
		metricProvisions.With("error").Inc()
		return Credential{}, fmt.Errorf("broker: provisioning %s on %s: %w", u.Name, addr, err)
	}
	metricProvisions.With("ok").Inc()
	cspan.SetAttr(trace.Bool("vaulted", false))
	s.logMu.Lock()
	defer s.logMu.Unlock()
	s.mu.RLock()
	next := *e
	s.mu.RUnlock()
	next.Keys = with(next.Keys, addr, storeKey)
	f := frame()
	f.Consumers[p.consumer] = next
	if err := s.commit(f); err != nil {
		return Credential{}, err
	}
	return Credential{StoreAddr: addr, Key: storeKey}, nil
}

// Credentials returns every vaulted store credential for the consumer,
// sorted by address (the list consumer applications fetch at §5.4).
func (s *Service) Credentials(key auth.APIKey) ([]Credential, error) {
	_, e, err := s.authConsumer(key)
	if err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Credential, 0, len(e.Keys))
	for addr, k := range e.Keys {
		out = append(out, Credential{StoreAddr: addr, Key: k})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].StoreAddr < out[j].StoreAddr })
	return out, nil
}

// SaveList stores a named contributor list in the consumer's account.
func (s *Service) SaveList(key auth.APIKey, listName string, members []string) error {
	u, e, err := s.authConsumer(key)
	if err != nil {
		return err
	}
	list := norm(listName)
	if list == "" {
		return fmt.Errorf("broker: empty list name")
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	s.mu.RLock()
	next := *e
	s.mu.RUnlock()
	if l, ok := next.Lists[list]; ok && slices.Equal(l, members) {
		return nil
	}
	next.Lists = with(next.Lists, list, append([]string(nil), members...))
	f := frame()
	f.Consumers[norm(u.Name)] = next
	return s.commit(f)
}

// List retrieves a saved contributor list.
func (s *Service) List(key auth.APIKey, listName string) ([]string, error) {
	_, e, err := s.authConsumer(key)
	if err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	l, ok := e.Lists[norm(listName)]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownList, listName)
	}
	return append([]string(nil), l...), nil
}

// CreateStudy declares a study/group name.
func (s *Service) CreateStudy(name string) error {
	study := norm(name)
	if study == "" {
		return fmt.Errorf("broker: empty study name")
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	s.mu.RLock()
	_, dup := s.studies[study]
	s.mu.RUnlock()
	if dup {
		return nil
	}
	f := frame()
	f.Studies[study] = nil
	return s.commit(f)
}

// JoinStudy adds the consumer to a study; study membership feeds
// group-scoped rule evaluation during contributor search.
func (s *Service) JoinStudy(key auth.APIKey, study string) error {
	u, e, err := s.authConsumer(key)
	if err != nil {
		return err
	}
	me := norm(u.Name)
	s.logMu.Lock()
	defer s.logMu.Unlock()
	s.mu.RLock()
	set, ok := s.studies[norm(study)]
	joined, next := set[me], *e
	s.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownStudy, study)
	}
	if joined {
		return nil
	}
	next.Groups = append(slices.Clip(next.Groups), study)
	f := frame()
	f.Consumers[me] = next
	f.Studies[norm(study)] = append(members(set), me)
	sort.Strings(f.Studies[norm(study)])
	return s.commit(f)
}

// EnrollContributor adds a contributor to a study's cohort roster — the
// fixed participant list a federated cohort query can target with the
// study selector. The contributor need not be in the directory yet;
// resolution happens at query time.
func (s *Service) EnrollContributor(study, contributor string) error {
	if norm(contributor) == "" {
		return fmt.Errorf("broker: empty contributor name")
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	s.mu.RLock()
	_, ok := s.studies[norm(study)]
	roster := s.rosters[norm(study)]
	s.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownStudy, study)
	}
	if roster[norm(contributor)] == contributor {
		return nil
	}
	f := frame()
	f.StudyRosters = map[string][]string{norm(study): rosterNames(with(roster, norm(contributor), contributor))}
	return s.commit(f)
}

// StudyContributors lists a study's enrolled contributor cohort, sorted.
func (s *Service) StudyContributors(study string) ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, ok := s.studies[norm(study)]; !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownStudy, study)
	}
	out := make([]string, 0, len(s.rosters[norm(study)]))
	for _, name := range s.rosters[norm(study)] {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// StudyMembers lists a study's consumers, sorted.
func (s *Service) StudyMembers(study string) ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	set, ok := s.studies[norm(study)]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownStudy, study)
	}
	out := make([]string, 0, len(set))
	for m := range set {
		out = append(out, m)
	}
	sort.Strings(out)
	return out, nil
}

// ContributorCount reports directory size.
func (s *Service) ContributorCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.contributors)
}

// now is a test seam for search probe timing.
var now = time.Now
