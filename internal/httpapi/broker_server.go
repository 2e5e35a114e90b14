package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"sensorsafe/internal/obs"
	"sensorsafe/internal/obs/trace"
	"sensorsafe/internal/overload"

	"sensorsafe/internal/auth"
	"sensorsafe/internal/broker"
	"sensorsafe/internal/geo"
	"sensorsafe/internal/rules"
	"sensorsafe/internal/timeutil"
)

// Broker wire types.

type brokerRegisterContribReq struct {
	Name      string `json:"name"`
	StoreAddr string `json:"storeAddr"`
}

type brokerSyncReq struct {
	Contributor string          `json:"contributor"`
	Version     uint64          `json:"version"`
	Rules       json.RawMessage `json:"rules"`
	Places      []geo.Region    `json:"places"`
}

type syncDigestReq struct {
	StoreAddr string            `json:"storeAddr"`
	Versions  map[string]uint64 `json:"versions"`
}

type syncDigestResp struct {
	Stale []string `json:"stale"`
}

type replicasResp struct {
	Replicas []broker.ReplicaStatus `json:"replicas"`
}

type keyReq struct {
	Key auth.APIKey `json:"key"`
}

type directoryResp struct {
	Contributors []broker.ContributorInfo `json:"contributors"`
}

type connectReq struct {
	Key         auth.APIKey `json:"key"`
	Contributor string      `json:"contributor"`
}

type credentialsResp struct {
	Credentials []broker.Credential `json:"credentials"`
}

type listSaveReq struct {
	Key     auth.APIKey `json:"key"`
	Name    string      `json:"name"`
	Members []string    `json:"members"`
}

type listGetReq struct {
	Key  auth.APIKey `json:"key"`
	Name string      `json:"name"`
}

type listGetResp struct {
	Members []string `json:"members"`
}

type studyReq struct {
	Key         auth.APIKey `json:"key"`
	Study       string      `json:"study"`
	Contributor string      `json:"contributor,omitempty"`
}

type studyMembersResp struct {
	Members []string `json:"members"`
}

type studyContributorsResp struct {
	Contributors []string `json:"contributors"`
}

// searchWire is the JSON form of broker.SearchQuery (Repeated and Range
// need explicit wire shapes).
type searchWire struct {
	Key            auth.APIKey       `json:"key"`
	Sensors        []string          `json:"sensors,omitempty"`
	Contexts       map[string]string `json:"contexts,omitempty"` // category → level name
	LocationLabel  string            `json:"locationLabel,omitempty"`
	Region         *geo.Rect         `json:"region,omitempty"`
	RepeatDay      []string          `json:"repeatDay,omitempty"`
	RepeatHourMin  []string          `json:"repeatHourMin,omitempty"`
	TimeStart      string            `json:"timeStart,omitempty"`
	TimeEnd        string            `json:"timeEnd,omitempty"`
	ActiveContexts []string          `json:"activeContexts,omitempty"`
	Reference      string            `json:"reference,omitempty"`
}

type searchResp struct {
	Contributors []string `json:"contributors"`
	// Hits mirrors Contributors with store addresses attached, so a
	// federated consumer resolves the whole cohort in one call.
	Hits []broker.SearchHit `json:"hits,omitempty"`
}

func (w *searchWire) toQuery() (*broker.SearchQuery, error) {
	q := &broker.SearchQuery{
		Sensors:        w.Sensors,
		LocationLabel:  w.LocationLabel,
		ActiveContexts: w.ActiveContexts,
	}
	if w.Region != nil {
		q.Region = *w.Region
	}
	if len(w.Contexts) > 0 {
		q.Contexts = make(map[rules.Category]rules.Level, len(w.Contexts))
		for catName, lvlName := range w.Contexts {
			var cat rules.Category
			for _, c := range rules.Categories() {
				if string(c) == catName {
					cat = c
				}
			}
			if cat == "" {
				return nil, fmt.Errorf("httpapi: unknown context category %q", catName)
			}
			lvl, err := rules.ParseLevel(cat, lvlName)
			if err != nil {
				return nil, err
			}
			q.Contexts[cat] = lvl
		}
	}
	if len(w.RepeatDay) > 0 || len(w.RepeatHourMin) > 0 {
		rep, err := timeutil.ParseRepeated(w.RepeatDay, w.RepeatHourMin)
		if err != nil {
			return nil, err
		}
		q.RepeatTime = rep
	}
	var start, end time.Time
	var err error
	if w.TimeStart != "" {
		if start, err = time.Parse(time.RFC3339, w.TimeStart); err != nil {
			return nil, fmt.Errorf("httpapi: bad timeStart: %w", err)
		}
	}
	if w.TimeEnd != "" {
		if end, err = time.Parse(time.RFC3339, w.TimeEnd); err != nil {
			return nil, fmt.Errorf("httpapi: bad timeEnd: %w", err)
		}
	}
	if !start.IsZero() || !end.IsZero() {
		rng, err := timeutil.NewRange(start, end)
		if err != nil {
			return nil, err
		}
		q.TimeRange = rng
	}
	if w.Reference != "" {
		if q.Reference, err = time.Parse(time.RFC3339, w.Reference); err != nil {
			return nil, fmt.Errorf("httpapi: bad reference: %w", err)
		}
	}
	return q, nil
}

// NewBrokerHandler builds the HTTP API for the broker with a default
// admission controller (see NewBrokerHandlerOverload).
func NewBrokerHandler(svc *broker.Service) http.Handler {
	return NewBrokerHandlerOverload(svc, overload.NewController(overload.BrokerDefaults()))
}

// NewBrokerHandlerOverload builds the broker API around an explicit
// admission controller. Stores whose directory address is an http(s) URL
// are dialed on demand, so consumer provisioning works without explicit
// store registration (and across broker restarts).
func NewBrokerHandlerOverload(svc *broker.Service, ctrl *overload.Controller) http.Handler {
	return brokerAPI(svc, ctrl).handler()
}

// brokerAPI mounts the broker's routes and its ungated status endpoints.
func brokerAPI(svc *broker.Service, ctrl *overload.Controller) *api {
	start := time.Now()
	svc.SetStoreDialer(func(addr string) broker.StoreConn {
		if strings.HasPrefix(addr, "http://") || strings.HasPrefix(addr, "https://") {
			return &StoreClient{BaseURL: addr}
		}
		return nil
	})
	a := newAPI("broker", ctrl)

	brokerConsumersRegister.mount(a, func(ctx context.Context, r *registerReq) (registerResp, error) {
		u, err := svc.RegisterConsumer(r.Name)
		if err != nil {
			return registerResp{}, err
		}
		return registerResp{Name: u.Name, Role: u.Role.String(), Key: u.Key}, nil
	})

	brokerContributorsRegister.mount(a, func(ctx context.Context, r *brokerRegisterContribReq) (okResp, error) {
		if err := svc.RegisterContributor(ctx, r.Name, r.StoreAddr); err != nil {
			return okResp{}, err
		}
		return okResp{OK: true}, nil
	})

	brokerSync.mount(a, func(ctx context.Context, r *brokerSyncReq) (okResp, error) {
		if err := svc.SyncRules(ctx, r.Contributor, r.Version, r.Rules, r.Places); err != nil {
			return okResp{}, err
		}
		return okResp{OK: true}, nil
	})

	brokerSyncDigest.mount(a, func(ctx context.Context, r *syncDigestReq) (syncDigestResp, error) {
		stale, err := svc.SyncDigest(ctx, r.StoreAddr, r.Versions)
		if err != nil {
			return syncDigestResp{}, err
		}
		return syncDigestResp{Stale: stale}, nil
	})

	brokerReplicas.mount(a, func(ctx context.Context, r *struct{}) (replicasResp, error) {
		return replicasResp{Replicas: svc.Replicas()}, nil
	})

	brokerDirectory.mount(a, func(ctx context.Context, r *keyReq) (directoryResp, error) {
		dir, err := svc.Directory(r.Key)
		if err != nil {
			return directoryResp{}, err
		}
		return directoryResp{Contributors: dir}, nil
	})

	brokerConnect.mount(a, func(ctx context.Context, r *connectReq) (broker.Credential, error) {
		return svc.Connect(ctx, r.Key, r.Contributor)
	})

	brokerCredentials.mount(a, func(ctx context.Context, r *keyReq) (credentialsResp, error) {
		creds, err := svc.Credentials(r.Key)
		if err != nil {
			return credentialsResp{}, err
		}
		return credentialsResp{Credentials: creds}, nil
	})

	brokerSearch.mount(a, func(ctx context.Context, r *searchWire) (searchResp, error) {
		q, err := r.toQuery()
		if err != nil {
			return searchResp{}, err
		}
		hits, err := svc.SearchInfoCtx(ctx, r.Key, q)
		if err != nil {
			return searchResp{}, err
		}
		resp := searchResp{Contributors: make([]string, len(hits)), Hits: hits}
		for i, h := range hits {
			resp.Contributors[i] = h.Contributor
		}
		return resp, nil
	})

	brokerListsSave.mount(a, func(ctx context.Context, r *listSaveReq) (okResp, error) {
		if err := svc.SaveList(r.Key, r.Name, r.Members); err != nil {
			return okResp{}, err
		}
		return okResp{OK: true}, nil
	})

	brokerListsGet.mount(a, func(ctx context.Context, r *listGetReq) (listGetResp, error) {
		members, err := svc.List(r.Key, r.Name)
		if err != nil {
			return listGetResp{}, err
		}
		return listGetResp{Members: members}, nil
	})

	brokerStudiesCreate.mount(a, func(ctx context.Context, r *studyReq) (okResp, error) {
		if err := svc.CreateStudy(r.Study); err != nil {
			return okResp{}, err
		}
		return okResp{OK: true}, nil
	})

	brokerStudiesJoin.mount(a, func(ctx context.Context, r *studyReq) (okResp, error) {
		if err := svc.JoinStudy(r.Key, r.Study); err != nil {
			return okResp{}, err
		}
		return okResp{OK: true}, nil
	})

	brokerStudiesMembers.mount(a, func(ctx context.Context, r *studyReq) (studyMembersResp, error) {
		members, err := svc.StudyMembers(r.Study)
		if err != nil {
			return studyMembersResp{}, err
		}
		return studyMembersResp{Members: members}, nil
	})

	brokerStudiesEnroll.mount(a, func(ctx context.Context, r *studyReq) (okResp, error) {
		if err := svc.EnrollContributor(r.Study, r.Contributor); err != nil {
			return okResp{}, err
		}
		return okResp{OK: true}, nil
	})

	brokerStudiesContributors.mount(a, func(ctx context.Context, r *studyReq) (studyContributorsResp, error) {
		names, err := svc.StudyContributors(r.Study)
		if err != nil {
			return studyContributorsResp{}, err
		}
		return studyContributorsResp{Contributors: names}, nil
	})

	a.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, Health{
			Status:       "ok",
			UptimeS:      time.Since(start).Seconds(),
			Contributors: svc.ContributorCount(),
			Consumers:    svc.Users().Len(),
			Degradation:  ctrl.State().String(),
			Pressure:     ctrl.Pressure(),
		})
	})

	a.mux.Handle("/metrics", obs.Handler())

	// Completed traces (sampled: errored or slow spans, bounded ring). The
	// payload carries span metadata only — names, IDs, rule provenance —
	// never sensor data.
	a.mux.Handle("/debug/traces", trace.Handler())

	a.mountAdmin("SensorSafe Broker", func() string {
		return fmt.Sprintf("Contributors: %d · Consumers: %d", svc.ContributorCount(), svc.Users().Len())
	})
	return a
}
