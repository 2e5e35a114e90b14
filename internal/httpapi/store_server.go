package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"sensorsafe/internal/obs"
	"sensorsafe/internal/obs/trace"
	"sensorsafe/internal/overload"

	"sensorsafe/internal/abstraction"
	"sensorsafe/internal/audit"
	"sensorsafe/internal/auth"
	"sensorsafe/internal/binwire"
	"sensorsafe/internal/datastore"
	"sensorsafe/internal/geo"
	"sensorsafe/internal/query"
	"sensorsafe/internal/recommend"
	"sensorsafe/internal/wavesegment"
)

// Wire types shared by the store server and client.

type registerReq struct {
	Name string `json:"name"`
	Role string `json:"role"` // "contributor" or "consumer"
}

type registerResp struct {
	Name string      `json:"name"`
	Role string      `json:"role"`
	Key  auth.APIKey `json:"key"`
}

type uploadReq struct {
	Key      auth.APIKey            `json:"key"`
	Segments []*wavesegment.Segment `json:"segments"`
}

// AppendBinary writes the upload as a binary frame: the key, then the
// segments.
func (u uploadReq) AppendBinary(b []byte) ([]byte, error) {
	return appendSegments(binwire.AppendString(b, string(u.Key)), u.Segments)
}

// DecodeBinary decodes an upload frame into u.
func (u *uploadReq) DecodeBinary(data []byte) error {
	r := binwire.NewReader(data)
	u.Key = auth.APIKey(r.Str())
	u.Segments = decodeSegments(r)
	return r.End()
}

// appendSegments appends segments as a binary frame list: each a
// presence flag and its blob. A NaN or infinite value fails, as in JSON.
func appendSegments(b []byte, segs []*wavesegment.Segment) ([]byte, error) {
	return binwire.AppendList(b, segs, func(b []byte, s *wavesegment.Segment) ([]byte, error) {
		if s == nil {
			return append(b, 0), nil
		}
		if err := s.CheckFinite(); err != nil {
			return b, err
		}
		return s.AppendBinary(append(b, 1))
	})
}

// decodeSegments reads a list appendSegments wrote.
func decodeSegments(r *binwire.Reader) []*wavesegment.Segment {
	return binwire.List(r, 1, func(s **wavesegment.Segment) {
		if r.Flag() {
			*s = new(wavesegment.Segment)
			(*s).DecodeBinary(r)
		}
	})
}

type uploadResp struct {
	Records int `json:"records"`
}

type queryReq struct {
	Key auth.APIKey `json:"key"`
	// Query is the structured form; Text is the mini-language alternative
	// (used by CLIs). Text wins when both are present.
	Query *query.Query `json:"query,omitempty"`
	Text  string       `json:"text,omitempty"`
}

type queryResp struct {
	Releases []*abstraction.Release `json:"releases"`
}

// AppendBinary writes the /api/query answer as a binary frame: the
// list of releases.
func (q queryResp) AppendBinary(b []byte) ([]byte, error) {
	return abstraction.AppendReleases(b, q.Releases)
}

// DecodeBinary decodes an /api/query frame into q.
func (q *queryResp) DecodeBinary(data []byte) error {
	r := binwire.NewReader(data)
	q.Releases = abstraction.DecodeReleases(r)
	return r.End()
}

type queryOwnResp struct {
	Segments []*wavesegment.Segment `json:"segments"`
}

// AppendBinary writes the owner's segments as a binary frame.
func (q queryOwnResp) AppendBinary(b []byte) ([]byte, error) {
	return appendSegments(b, q.Segments)
}

// DecodeBinary decodes an /api/queryown frame into q.
func (q *queryOwnResp) DecodeBinary(data []byte) error {
	r := binwire.NewReader(data)
	q.Segments = decodeSegments(r)
	return r.End()
}

type rulesSetReq struct {
	Key   auth.APIKey     `json:"key"`
	Rules json.RawMessage `json:"rules"`
}

type rulesGetReq struct {
	Key auth.APIKey `json:"key"`
}

// rulesGetResp is the owner's whole policy, read from one compiled
// value, so the phone never pairs one version's rules with another's
// places.
type rulesGetResp struct {
	Rules       json.RawMessage `json:"rules"`
	Places      []geo.Region    `json:"places"`
	RuleVersion uint64          `json:"ruleVersion"`
}

type placeDefineReq struct {
	Key    auth.APIKey `json:"key"`
	Label  string      `json:"label"`
	Region geo.Region  `json:"region"`
}

type groupsAssignReq struct {
	Key      auth.APIKey `json:"key"`
	Consumer string      `json:"consumer"`
	Groups   []string    `json:"groups"`
}

type auditEventsReq struct {
	Key      auth.APIKey `json:"key"`
	Consumer string      `json:"consumer,omitempty"`
	Since    string      `json:"since,omitempty"` // RFC3339
	Limit    int         `json:"limit,omitempty"`
}

type auditEventsResp struct {
	Events []audit.Event `json:"events"`
}

type auditSummaryResp struct {
	Consumers []audit.ConsumerSummary `json:"consumers"`
}

type recommendReq struct {
	Key         auth.APIKey `json:"key"`
	MinOverlap  float64     `json:"minOverlap,omitempty"`
	MinDuration string      `json:"minDuration,omitempty"` // Go duration, e.g. "2m"
}

type recommendResp struct {
	Suggestions []recommend.Suggestion `json:"suggestions"`
}

func (q *queryReq) resolve() (*query.Query, error) {
	if q.Text != "" {
		return query.Parse(q.Text)
	}
	if q.Query != nil {
		return q.Query, nil
	}
	return &query.Query{}, nil
}

// NewStoreHandler builds the HTTP API for one remote data store with a
// default admission controller (see NewStoreHandlerOverload).
func NewStoreHandler(svc *datastore.Service) http.Handler {
	return NewStoreHandlerOverload(svc, overload.NewController(overload.StoreDefaults()))
}

// NewStoreHandlerOverload builds the store API around an explicit
// admission controller, wrapped in the observability and overload
// middleware (metrics, request logging, X-Request-ID propagation,
// class-ordered load shedding). The controller is fed the segment
// engine's live backlog as pressure signals, so a struggling storage
// layer browns out stream delivery and queries before ingest suffers.
func NewStoreHandlerOverload(svc *datastore.Service, ctrl *overload.Controller) http.Handler {
	return storeAPI(svc, ctrl).handler()
}

// storeAPI mounts the store's routes and its ungated status endpoints.
func storeAPI(svc *datastore.Service, ctrl *overload.Controller) *api {
	start := time.Now()
	a := newAPI("store", ctrl)
	registerStorePressure(ctrl, svc)

	storeRegister.mount(a, func(ctx context.Context, r *registerReq) (registerResp, error) {
		var u auth.User
		var err error
		switch r.Role {
		case "contributor":
			u, err = svc.RegisterContributor(r.Name)
		case "consumer", "":
			u, err = svc.RegisterConsumer(r.Name)
		default:
			return registerResp{}, fmt.Errorf("httpapi: unknown role %q", r.Role)
		}
		if err != nil {
			return registerResp{}, err
		}
		return registerResp{Name: u.Name, Role: u.Role.String(), Key: u.Key}, nil
	})

	storeUpload.mount(a, func(ctx context.Context, r *uploadReq) (uploadResp, error) {
		n, err := svc.UploadCtx(ctx, r.Key, r.Segments)
		if err != nil {
			return uploadResp{}, err
		}
		return uploadResp{Records: n}, nil
	})

	storeQuery.mount(a, func(ctx context.Context, r *queryReq) (queryResp, error) {
		q, err := r.resolve()
		if err != nil {
			return queryResp{}, err
		}
		rels, err := svc.QueryCtx(ctx, r.Key, q)
		if err != nil {
			return queryResp{}, err
		}
		return queryResp{Releases: rels}, nil
	})

	storeQueryOwn.mount(a, func(ctx context.Context, r *queryReq) (queryOwnResp, error) {
		q, err := r.resolve()
		if err != nil {
			return queryOwnResp{}, err
		}
		segs, err := svc.QueryOwn(r.Key, q)
		if err != nil {
			return queryOwnResp{}, err
		}
		// The owner-review endpoint is the one sanctioned raw egress:
		// QueryOwn authenticates the contributor role and scopes the scan to
		// the key owner's records, so no third party's data can flow here.
		//sslint:ignore privacyflow owner-only endpoint; QueryOwn is scoped to the authenticated contributor
		return queryOwnResp{Segments: segs}, nil
	})

	storeRulesSet.mount(a, func(ctx context.Context, r *rulesSetReq) (okResp, error) {
		if err := svc.SetRules(r.Key, r.Rules); err != nil {
			return okResp{}, err
		}
		return okResp{OK: true}, nil
	})

	storeRulesGet.mount(a, func(ctx context.Context, r *rulesGetReq) (rulesGetResp, error) {
		p, err := svc.Policy(r.Key)
		if err != nil {
			return rulesGetResp{}, err
		}
		return rulesGetResp{Rules: p.RuleSet(), Places: p.Places, RuleVersion: p.RuleVersion}, nil
	})

	storePlacesDefine.mount(a, func(ctx context.Context, r *placeDefineReq) (okResp, error) {
		if err := svc.DefinePlace(r.Key, r.Label, r.Region); err != nil {
			return okResp{}, err
		}
		return okResp{OK: true}, nil
	})

	storeGroupsAssign.mount(a, func(ctx context.Context, r *groupsAssignReq) (okResp, error) {
		if err := svc.AssignConsumerGroups(r.Key, r.Consumer, r.Groups); err != nil {
			return okResp{}, err
		}
		return okResp{OK: true}, nil
	})

	storeAuditEvents.mount(a, func(ctx context.Context, r *auditEventsReq) (auditEventsResp, error) {
		f := audit.Filter{Consumer: r.Consumer, Limit: r.Limit}
		if r.Since != "" {
			since, err := time.Parse(time.RFC3339, r.Since)
			if err != nil {
				return auditEventsResp{}, fmt.Errorf("httpapi: bad since: %w", err)
			}
			f.Since = since
		}
		events, err := svc.Audit(r.Key, f)
		if err != nil {
			return auditEventsResp{}, err
		}
		return auditEventsResp{Events: events}, nil
	})

	storeAuditSummary.mount(a, func(ctx context.Context, r *rulesGetReq) (auditSummaryResp, error) {
		sums, err := svc.AuditSummary(r.Key)
		if err != nil {
			return auditSummaryResp{}, err
		}
		return auditSummaryResp{Consumers: sums}, nil
	})

	storeRotate.mount(a, func(ctx context.Context, r *rulesGetReq) (registerResp, error) {
		newKey, err := svc.RotateKey(r.Key)
		if err != nil {
			return registerResp{}, err
		}
		return registerResp{Key: newKey}, nil
	})

	storeRecommend.mount(a, func(ctx context.Context, r *recommendReq) (recommendResp, error) {
		opts := recommend.Options{MinOverlap: r.MinOverlap}
		if r.MinDuration != "" {
			d, err := time.ParseDuration(r.MinDuration)
			if err != nil {
				return recommendResp{}, fmt.Errorf("httpapi: bad minDuration: %w", err)
			}
			opts.MinDuration = d
		}
		sugs, err := svc.Recommend(r.Key, opts)
		if err != nil {
			return recommendResp{}, err
		}
		return recommendResp{Suggestions: sugs}, nil
	})

	registerStreamAPI(a, svc)

	a.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, Health{
			Status:      "ok",
			UptimeS:     time.Since(start).Seconds(),
			Name:        svc.Name(),
			Segments:    svc.SegmentCount(),
			Users:       svc.Users().Len(),
			Degradation: ctrl.State().String(),
			Pressure:    ctrl.Pressure(),
		})
	})

	a.mux.Handle("/metrics", obs.Handler())

	// Completed traces (sampled: errored or slow spans, bounded ring). The
	// payload carries span metadata only — names, IDs, rule provenance —
	// never sensor data.
	a.mux.Handle("/debug/traces", trace.Handler())

	// Segment-engine internals: file counts per level, live/dead
	// records, WAL size, last compaction. Metadata only, no sensor
	// data. 404 when the service runs the in-memory engine.
	a.mux.HandleFunc("/debug/segstore", func(w http.ResponseWriter, r *http.Request) {
		stats, ok := svc.SegmentStoreStats()
		if !ok {
			http.Error(w, "segment engine stats unavailable (in-memory store)", http.StatusNotFound)
			return
		}
		writeJSON(w, stats)
	})

	// Compiled rule-index internals per contributor: rule count, compile
	// time, decision-cache hit ratio and evictions, index shape. Metadata
	// only — rule conditions and sensor data never appear.
	a.mux.HandleFunc("/debug/ruleindex", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, svc.RuleIndexStats())
	})

	a.mountAdmin("SensorSafe Remote Data Store: "+svc.Name(), func() string {
		return fmt.Sprintf("Stored wave segments: %d · Registered users: %d", svc.SegmentCount(), svc.Users().Len())
	})
	return a
}

// registerStorePressure feeds the segment engine's live backlog into the
// admission controller: WAL growth, sealed-memtable queue, and L0
// compaction debt each normalize to 1.0 at "the flush/compaction
// machinery is saturated". Memtable fill is not a source: it climbs to
// the flush trigger and drops on every flush by design, so it measures
// the ingest rate, not an inability to keep up. Services on the in-memory
// engine report no storage pressure (Stats returns ok=false).
func registerStorePressure(ctrl *overload.Controller, svc *datastore.Service) {
	ctrl.AddSource("segstore_wal", func() float64 {
		st, ok := svc.SegmentStoreStats()
		if !ok || st.MemtableBudget <= 0 {
			return 0
		}
		// The WAL holds the active memtable plus any sealed ones awaiting
		// flush; 4 budgets of WAL means flushing has fallen well behind.
		return float64(st.WALBytes) / float64(4*st.MemtableBudget)
	})
	ctrl.AddSource("segstore_sealed", func() float64 {
		st, ok := svc.SegmentStoreStats()
		if !ok {
			return 0
		}
		return float64(st.SealedMemtables) / 4
	})
	ctrl.AddSource("segstore_l0_debt", func() float64 {
		st, ok := svc.SegmentStoreStats()
		if !ok || st.L0Threshold <= 0 {
			return 0
		}
		l0 := 0
		for _, lv := range st.Levels {
			if lv.Level == 0 {
				l0 = lv.Files
			}
		}
		// Saturate at twice the compaction trigger: L0 at the threshold is
		// normal duty cycle, twice it is real debt.
		return float64(l0) / float64(2*st.L0Threshold)
	})
}
