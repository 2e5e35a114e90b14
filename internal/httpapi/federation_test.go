package httpapi

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"sensorsafe/internal/broker"
	"sensorsafe/internal/datastore"
	"sensorsafe/internal/federation"
	"sensorsafe/internal/wavesegment"
)

// fedContributor describes one store in a federated deployment: its
// owner's rules and the start offsets of the ECG segments it holds.
type fedContributor struct {
	rules   string
	offsets []time.Duration
}

type fedDeployment struct {
	bsvc        *broker.Service
	bc          *BrokerClient
	stores      map[string]*StoreClient // contributor → their store
	connectHits atomic.Int32            // broker /api/connect calls observed
}

// deployFederated spins up a broker and one independent store server per
// contributor, each with its own rules and data, all over real HTTP.
func deployFederated(t *testing.T, members map[string]fedContributor) *fedDeployment {
	t.Helper()
	ctx := context.Background()
	d := &fedDeployment{bsvc: broker.New(), stores: make(map[string]*StoreClient)}
	inner := NewBrokerHandler(d.bsvc)
	brokerServer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/api/connect" {
			d.connectHits.Add(1)
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(brokerServer.Close)
	d.bc = &BrokerClient{BaseURL: brokerServer.URL}

	for name, m := range members {
		var storeURL string
		svc, err := datastore.New(datastore.Options{Sync: d.bc, Directory: &lazyDirectory{bc: d.bc, addr: &storeURL}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { svc.Close() })
		storeServer := httptest.NewServer(NewStoreHandler(svc))
		t.Cleanup(storeServer.Close)
		storeURL = storeServer.URL
		sc := &StoreClient{BaseURL: storeServer.URL}
		d.stores[name] = sc

		owner, err := sc.RegisterCtx(ctx, name, "contributor")
		if err != nil {
			t.Fatal(err)
		}
		if err := sc.SetRulesCtx(ctx, owner.Key, []byte(m.rules)); err != nil {
			t.Fatal(err)
		}
		segs := make([]*wavesegment.Segment, len(m.offsets))
		for i, off := range m.offsets {
			segs[i] = &wavesegment.Segment{
				Contributor: name, Start: t0.Add(off), Interval: time.Second,
				Location: home, Channels: []string{wavesegment.ChannelECG},
				Values: [][]float64{{1}, {2}},
			}
		}
		if len(segs) > 0 {
			if _, err := sc.UploadCtx(ctx, owner.Key, segs); err != nil {
				t.Fatal(err)
			}
		}
	}
	return d
}

func fedMembers() map[string]fedContributor {
	return map[string]fedContributor{
		// alice shares everything.
		"alice": {rules: `[{"Action":"Allow"}]`, offsets: []time.Duration{0, 2 * time.Hour, 4 * time.Hour}},
		// bea shares everything too, interleaved in time with alice.
		"bea": {rules: `[{"Action":"Allow"}]`, offsets: []time.Duration{time.Hour, 3 * time.Hour}},
		// cara denies all sharing: her store must answer OK with zero
		// releases, isolated from the others.
		"cara": {rules: `[{"Action":"Deny"}]`, offsets: []time.Duration{30 * time.Minute}},
	}
}

func TestFederatedCohortOverHTTP(t *testing.T) {
	ctx := context.Background()
	d := deployFederated(t, fedMembers())
	bob, err := d.bc.RegisterConsumerCtx(ctx, "Bob")
	if err != nil {
		t.Fatal(err)
	}
	eng := NewFederation(d.bc, bob.Key, federation.Options{PerStoreTimeout: 5 * time.Second})

	res, err := eng.CohortQuery(ctx, &federation.Request{
		Cohort: federation.Cohort{Contributors: []string{"alice", "bea", "cara"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial {
		t.Fatalf("all stores up, result partial; reports = %+v", res.Reports)
	}
	// Global time order across stores, with cara's deny-all contributing
	// nothing but not poisoning the rest.
	if len(res.Releases) != 5 {
		t.Fatalf("merged %d releases, want alice's 3 + bea's 2", len(res.Releases))
	}
	wantOrder := []string{"alice", "bea", "alice", "bea", "alice"}
	for i, r := range res.Releases {
		if r.Contributor != wantOrder[i] {
			t.Errorf("release %d from %s, want %s", i, r.Contributor, wantOrder[i])
		}
		if i > 0 && r.Start.Before(res.Releases[i-1].Start) {
			t.Errorf("release %d breaks global time order", i)
		}
	}
	if len(res.Reports) != 3 {
		t.Fatalf("reports = %+v", res.Reports)
	}
	for _, rep := range res.Reports {
		if rep.Outcome != federation.OutcomeOK {
			t.Errorf("%s outcome = %s (%s)", rep.Contributor, rep.Outcome, rep.Error)
		}
		if rep.Contributor == "cara" && rep.Releases != 0 {
			t.Errorf("deny-all store released %d", rep.Releases)
		}
	}

	// Credential cache: the first query connected once per contributor; a
	// second query must not connect again.
	base := d.connectHits.Load()
	if base != 3 {
		t.Errorf("first query made %d Connect calls, want 3", base)
	}
	if _, err := eng.CohortQuery(ctx, &federation.Request{
		Cohort: federation.Cohort{Contributors: []string{"alice", "bea", "cara"}},
	}); err != nil {
		t.Fatal(err)
	}
	if got := d.connectHits.Load(); got != base {
		t.Errorf("second query re-connected: %d → %d calls", base, got)
	}
}

func TestFederatedCursorResumeOverHTTP(t *testing.T) {
	ctx := context.Background()
	d := deployFederated(t, fedMembers())
	bob, err := d.bc.RegisterConsumerCtx(ctx, "Bob")
	if err != nil {
		t.Fatal(err)
	}
	eng := NewFederation(d.bc, bob.Key, federation.Options{})

	cohort := federation.Cohort{Contributors: []string{"alice", "bea", "cara"}}
	oneShot, err := eng.CohortQuery(ctx, &federation.Request{Cohort: cohort})
	if err != nil {
		t.Fatal(err)
	}

	var paged []string
	cursor := ""
	for pages := 0; ; pages++ {
		if pages > 10 {
			t.Fatal("pagination does not terminate")
		}
		res, err := eng.CohortQuery(ctx, &federation.Request{Cohort: cohort, Limit: 2, Cursor: cursor})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Releases {
			paged = append(paged, r.Contributor+"@"+r.Start.Format(time.RFC3339))
		}
		if res.Cursor == "" {
			break
		}
		cursor = res.Cursor
	}
	if len(paged) != len(oneShot.Releases) {
		t.Fatalf("paged %d releases, one-shot %d", len(paged), len(oneShot.Releases))
	}
	for i, r := range oneShot.Releases {
		if want := r.Contributor + "@" + r.Start.Format(time.RFC3339); paged[i] != want {
			t.Errorf("page item %d = %s, want %s", i, paged[i], want)
		}
	}
}

func TestFederatedSelectorsOverHTTP(t *testing.T) {
	ctx := context.Background()
	d := deployFederated(t, fedMembers())
	bob, err := d.bc.RegisterConsumerCtx(ctx, "Bob")
	if err != nil {
		t.Fatal(err)
	}
	eng := NewFederation(d.bc, bob.Key, federation.Options{})

	// Search selector: hits carry store addresses from the broker replica
	// match; cara's deny-all keeps her out of the cohort entirely.
	res, err := eng.CohortQuery(ctx, &federation.Request{
		Cohort: federation.Cohort{Search: &broker.SearchQuery{Sensors: []string{"ECG"}, Reference: t0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 2 {
		t.Fatalf("search cohort reports = %+v, want alice+bea", res.Reports)
	}
	if len(res.Releases) != 5 {
		t.Errorf("search cohort released %d, want 5", len(res.Releases))
	}

	// Saved-list selector.
	if err := d.bc.SaveListCtx(ctx, bob.Key, "pilot", []string{"bea"}); err != nil {
		t.Fatal(err)
	}
	res, err = eng.CohortQuery(ctx, &federation.Request{
		Cohort: federation.Cohort{List: "pilot"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Releases) != 2 || res.Releases[0].Contributor != "bea" {
		t.Fatalf("list cohort = %d releases", len(res.Releases))
	}

	// Study roster selector, over the new enroll/contributors endpoints.
	if err := d.bc.CreateStudyCtx(ctx, "asthma"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"alice", "bea"} {
		if err := d.bc.EnrollContributorCtx(ctx, "asthma", name); err != nil {
			t.Fatal(err)
		}
	}
	roster, err := d.bc.StudyContributorsCtx(ctx, "asthma")
	if err != nil || len(roster) != 2 {
		t.Fatalf("roster = %v, %v", roster, err)
	}
	res, err = eng.CohortQuery(ctx, &federation.Request{
		Cohort: federation.Cohort{Study: "asthma"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Releases) != 5 {
		t.Errorf("study cohort released %d, want 5", len(res.Releases))
	}
}

func TestFederatedDownStoreIsReported(t *testing.T) {
	ctx := context.Background()
	d := deployFederated(t, fedMembers())
	bob, err := d.bc.RegisterConsumerCtx(ctx, "Bob")
	if err != nil {
		t.Fatal(err)
	}
	// dora is in the directory but her store address points nowhere.
	if err := d.bc.RegisterContributorCtx(ctx, "dora", "http://127.0.0.1:1"); err != nil {
		t.Fatal(err)
	}
	eng := NewFederation(d.bc, bob.Key, federation.Options{PerStoreTimeout: 2 * time.Second})
	res, err := eng.CohortQuery(ctx, &federation.Request{
		Cohort: federation.Cohort{Contributors: []string{"alice", "dora"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Fatal("down store must flag the result partial")
	}
	if len(res.Releases) != 3 {
		t.Errorf("alice's data must still flow: got %d releases", len(res.Releases))
	}
	for _, rep := range res.Reports {
		switch rep.Contributor {
		case "alice":
			if rep.Outcome != federation.OutcomeOK {
				t.Errorf("alice outcome = %s (%s)", rep.Outcome, rep.Error)
			}
		case "dora":
			if rep.Outcome == federation.OutcomeOK || !rep.Missing || rep.Error == "" {
				t.Errorf("dora report = %+v, want explicit failure", rep)
			}
		}
	}
	// The partial page still yields a cursor so the consumer can resume
	// once dora's store is back.
	if res.Cursor == "" {
		t.Error("partial result must carry a resume cursor")
	}
}
