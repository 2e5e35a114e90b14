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
	"sensorsafe/internal/datastore"
	"sensorsafe/internal/geo"
	"sensorsafe/internal/jsonwire"
	"sensorsafe/internal/query"
	"sensorsafe/internal/recommend"
	"sensorsafe/internal/resilience"
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

// AppendJSON writes the /api/query body in one pass, byte for byte what
// encoding/json writes for queryResp.
func (q queryResp) AppendJSON(b []byte) ([]byte, error) {
	if q.Releases == nil {
		return append(b, `{"releases":null}`...), nil
	}
	b = append(b, `{"releases":[`...)
	for i, rel := range q.Releases {
		if i > 0 {
			b = append(b, ',')
		}
		if rel == nil {
			b = append(b, "null"...)
			continue
		}
		var err error
		if b, err = rel.AppendJSON(b); err != nil {
			return b, err
		}
	}
	return append(b, "]}"...), nil
}

var queryRespFields = []string{"releases"}

// DecodeJSON decodes an /api/query body into q in one pass, accepting
// exactly what json.Unmarshal accepts and leaving q as it would.
func (q *queryResp) DecodeJSON(data []byte) error {
	r := jsonwire.NewReader(data)
	if !r.Null() {
		err := r.Object(func(key []byte) error {
			if jsonwire.Field(key, queryRespFields) != 0 {
				return r.Skip()
			}
			if r.Null() {
				q.Releases = nil
				return nil
			}
			var err error
			q.Releases, err = jsonwire.Slice(r, q.Releases, func(rel **abstraction.Release) error {
				if r.Null() {
					*rel = nil
					return nil
				}
				if *rel == nil {
					*rel = new(abstraction.Release)
				}
				return (*rel).DecodeJSON(r)
			})
			return err
		})
		if err != nil {
			return err
		}
	}
	return r.End()
}

type queryOwnResp struct {
	Segments []*wavesegment.Segment `json:"segments"`
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

type passwordReq struct {
	Key      auth.APIKey `json:"key"`
	Password string      `json:"password"`
}

type loginReq struct {
	Name     string `json:"name"`
	Password string `json:"password"`
}

type loginResp struct {
	Token string `json:"token"`
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
	start := time.Now()
	mux := http.NewServeMux()
	registerStorePressure(ctrl, svc)

	mux.HandleFunc("/api/register", post(func(ctx context.Context, r *registerReq) (registerResp, error) {
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
	}))

	mux.HandleFunc("/api/upload", post(func(ctx context.Context, r *uploadReq) (uploadResp, error) {
		n, err := svc.UploadCtx(ctx, r.Key, r.Segments)
		if err != nil {
			return uploadResp{}, err
		}
		return uploadResp{Records: n}, nil
	}))

	mux.HandleFunc("/api/query", post(func(ctx context.Context, r *queryReq) (queryResp, error) {
		q, err := r.resolve()
		if err != nil {
			return queryResp{}, err
		}
		rels, err := svc.QueryCtx(ctx, r.Key, q)
		if err != nil {
			return queryResp{}, err
		}
		return queryResp{Releases: rels}, nil
	}))

	mux.HandleFunc("/api/queryown", post(func(ctx context.Context, r *queryReq) (queryOwnResp, error) {
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
	}))

	mux.HandleFunc("/api/rules/set", post(func(ctx context.Context, r *rulesSetReq) (okResp, error) {
		if err := svc.SetRules(r.Key, r.Rules); err != nil {
			return okResp{}, err
		}
		return okResp{OK: true}, nil
	}))

	mux.HandleFunc("/api/rules/get", post(func(ctx context.Context, r *rulesGetReq) (rulesGetResp, error) {
		p, err := svc.Policy(r.Key)
		if err != nil {
			return rulesGetResp{}, err
		}
		return rulesGetResp{Rules: p.RuleSet(), Places: p.Places, RuleVersion: p.RuleVersion}, nil
	}))

	mux.HandleFunc("/api/places/define", post(func(ctx context.Context, r *placeDefineReq) (okResp, error) {
		if err := svc.DefinePlace(r.Key, r.Label, r.Region); err != nil {
			return okResp{}, err
		}
		return okResp{OK: true}, nil
	}))

	mux.HandleFunc("/api/groups/assign", post(func(ctx context.Context, r *groupsAssignReq) (okResp, error) {
		if err := svc.AssignConsumerGroups(r.Key, r.Consumer, r.Groups); err != nil {
			return okResp{}, err
		}
		return okResp{OK: true}, nil
	}))

	mux.HandleFunc("/api/audit/events", post(func(ctx context.Context, r *auditEventsReq) (auditEventsResp, error) {
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
	}))

	mux.HandleFunc("/api/audit/summary", post(func(ctx context.Context, r *rulesGetReq) (auditSummaryResp, error) {
		sums, err := svc.AuditSummary(r.Key)
		if err != nil {
			return auditSummaryResp{}, err
		}
		return auditSummaryResp{Consumers: sums}, nil
	}))

	mux.HandleFunc("/api/rotate", post(func(ctx context.Context, r *rulesGetReq) (registerResp, error) {
		newKey, err := svc.RotateKey(r.Key)
		if err != nil {
			return registerResp{}, err
		}
		return registerResp{Key: newKey}, nil
	}))

	mux.HandleFunc("/api/recommend", post(func(ctx context.Context, r *recommendReq) (recommendResp, error) {
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
	}))

	// Web-UI login (paper §5.4: "Accesses to web user interfaces are
	// authenticated by a login system using a username and a password").
	// A user proves API-key possession to set their password, then logs in
	// for a session token.
	mux.HandleFunc("/api/password", post(func(ctx context.Context, r *passwordReq) (okResp, error) {
		u, err := svc.Users().Authenticate(r.Key)
		if err != nil {
			return okResp{}, err
		}
		if err := svc.Web().SetPassword(u.Name, r.Password); err != nil {
			return okResp{}, err
		}
		return okResp{OK: true}, nil
	}))

	mux.HandleFunc("/api/login", post(func(ctx context.Context, r *loginReq) (loginResp, error) {
		token, err := svc.Web().Login(r.Name, r.Password)
		if err != nil {
			return loginResp{}, err
		}
		return loginResp{Token: token}, nil
	}))

	registerStreamAPI(mux, svc)

	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
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

	mux.Handle("/metrics", obs.Handler())

	// Completed traces (sampled: errored or slow spans, bounded ring). The
	// payload carries span metadata only — names, IDs, rule provenance —
	// never sensor data.
	mux.Handle("/debug/traces", trace.Handler())

	// Segment-engine internals: file counts per level, live/dead
	// records, WAL size, last compaction. Metadata only, no sensor
	// data. 404 when the service runs the in-memory engine.
	mux.HandleFunc("/debug/segstore", func(w http.ResponseWriter, r *http.Request) {
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
	mux.HandleFunc("/debug/ruleindex", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, svc.RuleIndexStats())
	})

	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprintf(w, storeAdminHTML, svc.Name(), svc.SegmentCount(), svc.Users().Len())
	})

	inner := withOverload(ctrl, storeRouteClass, mux,
		withIdempotency("store", resilience.NewIdemCache(0), mux))
	return withObs("store", mux, inner)
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

// storeAdminHTML is the minimal web UI of the store (the paper's Fig. 3 UI
// produces exactly the rule JSON the /api/rules endpoints accept).
const storeAdminHTML = `<!DOCTYPE html>
<html><head><title>SensorSafe Remote Data Store</title></head>
<body>
<h1>SensorSafe Remote Data Store: %s</h1>
<p>Stored wave segments: %d &middot; Registered users: %d</p>
<h2>API</h2>
<ul>
<li>POST /api/register {name, role}</li>
<li>POST /api/upload {key, segments}</li>
<li>POST /api/query {key, query|text}</li>
<li>POST /api/queryown {key, query|text}</li>
<li>POST /api/rules/set {key, rules} &mdash; Fig. 4 JSON</li>
<li>POST /api/rules/get {key} &rarr; {rules, places, ruleVersion}</li>
<li>POST /api/places/define {key, label, region}</li>
<li>POST /api/groups/assign {key, consumer, groups}</li>
</ul>
</body></html>
`
