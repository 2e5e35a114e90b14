// Package core is the embeddable façade over the whole SensorSafe
// framework: it wires remote data stores to a broker in-process (the same
// interfaces the HTTP layer implements across hosts) and offers
// contributor/consumer handles that walk through the paper's workflows —
// upload with wave-segment optimization, privacy-rule management,
// broker-mediated discovery and credential provisioning, and enforced
// direct store-to-consumer queries.
package core

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"sensorsafe/internal/abstraction"
	"sensorsafe/internal/audit"
	"sensorsafe/internal/auth"
	"sensorsafe/internal/broker"
	"sensorsafe/internal/datastore"
	"sensorsafe/internal/geo"
	"sensorsafe/internal/phone"
	"sensorsafe/internal/query"
	"sensorsafe/internal/recommend"
	"sensorsafe/internal/sensors"
)

// Network is an in-process SensorSafe deployment: one broker plus any
// number of remote data stores.
type Network struct {
	// Broker is the deployment's broker service.
	Broker *broker.Service

	mu     sync.RWMutex
	stores map[string]*datastore.Service // guarded by mu
}

// NewNetwork creates an empty deployment.
func NewNetwork() *Network {
	return &Network{
		Broker: broker.New(),
		stores: make(map[string]*datastore.Service),
	}
}

// AddStore creates a remote data store wired to the broker: rule replicas
// sync automatically and contributors registered on the store appear in
// the broker directory. dir may be empty for an in-memory store.
func (n *Network) AddStore(name, dir string) (*datastore.Service, error) {
	n.mu.Lock()
	if _, dup := n.stores[name]; dup {
		n.mu.Unlock()
		return nil, fmt.Errorf("core: store %q already exists", name)
	}
	n.mu.Unlock()
	// Open the store outside the lock: engine open reads segment-file
	// footers and replays the WAL tail, and the deployment mutex must
	// stay responsive meanwhile.
	svc, err := datastore.New(datastore.Options{
		Name:      name,
		Dir:       dir,
		Sync:      brokerLink{n.Broker},
		Directory: brokerLink{n.Broker},
	})
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	if _, dup := n.stores[name]; dup {
		n.mu.Unlock()
		svc.Close()
		return nil, fmt.Errorf("core: store %q already exists", name)
	}
	n.stores[name] = svc
	n.mu.Unlock()
	n.Broker.RegisterStore(svc)
	return svc, nil
}

// brokerLink is the in-process hop from a store to the broker: it gives
// the broker's replica and directory methods the names the store's
// datastore.SyncTarget and datastore.Directory seams call.
type brokerLink struct{ b *broker.Service }

func (l brokerLink) SyncRulesCtx(ctx context.Context, contributor string, version uint64, ruleSet []byte, places []geo.Region) error {
	return l.b.SyncRules(ctx, contributor, version, ruleSet, places)
}

func (l brokerLink) SyncDigestCtx(ctx context.Context, storeAddr string, versions map[string]uint64) ([]string, error) {
	return l.b.SyncDigest(ctx, storeAddr, versions)
}

func (l brokerLink) RegisterContributorCtx(ctx context.Context, name, storeAddr string) error {
	return l.b.RegisterContributor(ctx, name, storeAddr)
}

// Store returns a store by name.
func (n *Network) Store(name string) (*datastore.Service, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	svc, ok := n.stores[name]
	return svc, ok
}

// StoreNames lists the deployment's stores, sorted.
func (n *Network) StoreNames() []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]string, 0, len(n.stores))
	for name := range n.stores {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Close shuts every store down. The store set is snapshotted and cleared
// under the lock, but the shutdowns run outside it: each store Close
// waits for its flusher goroutine, and the deployment mutex must not be
// held across that wait.
func (n *Network) Close() error {
	n.mu.Lock()
	stores := make([]*datastore.Service, 0, len(n.stores))
	for _, svc := range n.stores {
		stores = append(stores, svc)
	}
	n.stores = make(map[string]*datastore.Service)
	n.mu.Unlock()
	var first error
	for _, svc := range stores {
		if err := svc.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Contributor is a data contributor's handle: their account on a specific
// store plus phone access.
type Contributor struct {
	// Name is the contributor's identity.
	Name string
	// Key is their API key on Store.
	Key auth.APIKey
	// Store is their remote data store.
	Store *datastore.Service
}

// NewContributor registers a contributor on the named store.
func (n *Network) NewContributor(storeName, name string) (*Contributor, error) {
	svc, ok := n.Store(storeName)
	if !ok {
		return nil, fmt.Errorf("core: no store %q", storeName)
	}
	u, err := svc.RegisterContributor(name)
	if err != nil {
		return nil, err
	}
	return &Contributor{Name: u.Name, Key: u.Key, Store: svc}, nil
}

// SetRules installs the contributor's privacy rules (Fig. 4 JSON).
func (c *Contributor) SetRules(ruleSetJSON string) error {
	return c.Store.SetRules(c.Key, []byte(ruleSetJSON))
}

// DefinePlace labels a region ("home", "work", "UCLA").
func (c *Contributor) DefinePlace(label string, region geo.Region) error {
	return c.Store.DefinePlace(c.Key, label, region)
}

// AssignConsumerGroups maps a consumer into this contributor's
// group-scoped rules.
func (c *Contributor) AssignConsumerGroups(consumer string, groups []string) error {
	return c.Store.AssignConsumerGroups(c.Key, consumer, groups)
}

// Phone returns a simulated smartphone bound to this contributor.
func (c *Contributor) Phone(ruleAware bool) *phone.Phone {
	return &phone.Phone{
		Contributor: c.Name,
		Key:         c.Key,
		Store:       c.Store,
		RuleAware:   ruleAware,
	}
}

// RecordDay generates and uploads a scripted scenario through the phone.
func (c *Contributor) RecordDay(ctx context.Context, sc *sensors.Scenario, ruleAware bool) (*phone.Report, error) {
	return c.Phone(ruleAware).RunCtx(ctx, sc)
}

// ReviewData fetches the contributor's own raw data (no enforcement),
// wrapped as releases for uniform display.
func (c *Contributor) ReviewData(q *query.Query) ([]*abstraction.Release, error) {
	segs, err := c.Store.QueryOwn(c.Key, q)
	if err != nil {
		return nil, err
	}
	out := make([]*abstraction.Release, len(segs))
	for i, seg := range segs {
		out[i] = &abstraction.Release{
			Contributor: seg.Contributor,
			Start:       seg.StartTime(),
			End:         seg.EndTime(),
			Segment:     seg,
			Contexts:    seg.Annotations,
		}
	}
	return out, nil
}

// Recommend mines the contributor's stored data for privacy-rule
// suggestions.
func (c *Contributor) Recommend(opts recommend.Options) ([]recommend.Suggestion, error) {
	return c.Store.Recommend(c.Key, opts)
}

// Audit returns the contributor's access trail, newest first.
func (c *Contributor) Audit(f audit.Filter) ([]audit.Event, error) {
	return c.Store.Audit(c.Key, f)
}

// AuditSummary aggregates the trail per consumer — "who read my data, and
// how much did they actually see?".
func (c *Contributor) AuditSummary() ([]audit.ConsumerSummary, error) {
	return c.Store.AuditSummary(c.Key)
}

// Consumer is a data consumer's handle: a broker account plus vaulted
// per-store credentials.
type Consumer struct {
	// Name is the consumer's identity.
	Name string
	// Key is their broker API key.
	Key auth.APIKey

	network *Network
}

// NewConsumer registers a consumer on the broker.
func (n *Network) NewConsumer(name string) (*Consumer, error) {
	u, err := n.Broker.RegisterConsumer(name)
	if err != nil {
		return nil, err
	}
	return &Consumer{Name: u.Name, Key: u.Key, network: n}, nil
}

// Directory lists contributors known to the broker.
func (c *Consumer) Directory() ([]broker.ContributorInfo, error) {
	return c.network.Broker.Directory(c.Key)
}

// Search finds contributors whose privacy rules release what the query
// demands.
func (c *Consumer) Search(ctx context.Context, q *broker.SearchQuery) ([]string, error) {
	return c.network.Broker.SearchCtx(ctx, c.Key, q)
}

// QueryCtx downloads a contributor's data directly from their store (the
// broker only brokers the credential). ctx runs through the credential
// handshake and the store query, so one deadline bounds the whole hop.
func (c *Consumer) QueryCtx(ctx context.Context, contributor string, q *query.Query) ([]*abstraction.Release, error) {
	cred, err := c.network.Broker.Connect(ctx, c.Key, contributor)
	if err != nil {
		return nil, err
	}
	svc, ok := c.network.Store(cred.StoreAddr)
	if !ok {
		return nil, fmt.Errorf("core: credential for unknown store %q", cred.StoreAddr)
	}
	qq := *q
	qq.Contributor = contributor
	return svc.QueryCtx(ctx, cred.Key, &qq)
}

// QueryMany queries a list of contributors and concatenates the releases.
func (c *Consumer) QueryMany(ctx context.Context, contributors []string, q *query.Query) ([]*abstraction.Release, error) {
	var out []*abstraction.Release
	for _, name := range contributors {
		rels, err := c.QueryCtx(ctx, name, q)
		if err != nil {
			return nil, fmt.Errorf("core: querying %s: %w", name, err)
		}
		out = append(out, rels...)
	}
	return out, nil
}

// SaveList stores a contributor list under the consumer's broker account.
func (c *Consumer) SaveList(name string, members []string) error {
	return c.network.Broker.SaveList(c.Key, name, members)
}

// List fetches a saved contributor list.
func (c *Consumer) List(name string) ([]string, error) {
	return c.network.Broker.List(c.Key, name)
}

// JoinStudy adds the consumer to a broker-managed study.
func (c *Consumer) JoinStudy(study string) error {
	return c.network.Broker.JoinStudy(c.Key, study)
}
