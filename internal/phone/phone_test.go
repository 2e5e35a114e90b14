package phone

import (
	"context"
	"testing"
	"time"

	"sensorsafe/internal/datastore"
	"sensorsafe/internal/geo"
	"sensorsafe/internal/query"
	"sensorsafe/internal/rules"
	"sensorsafe/internal/sensors"
)

var (
	t0   = time.Date(2011, 2, 16, 8, 0, 0, 0, time.UTC) // Wednesday
	home = geo.Point{Lat: 34.0250, Lon: -118.4950}
)

func setup(t *testing.T) (*datastore.Service, *Phone) {
	t.Helper()
	svc, err := datastore.New(datastore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	alice, err := svc.RegisterContributor("alice")
	if err != nil {
		t.Fatal(err)
	}
	return svc, &Phone{Contributor: "alice", Key: alice.Key, Store: svc}
}

func scenario(phases ...sensors.Phase) *sensors.Scenario {
	return &sensors.Scenario{Start: t0, Origin: home, Seed: 3, Phases: phases}
}

func TestRunUploadsEverythingWhenNotRuleAware(t *testing.T) {
	ctx := context.Background()
	svc, p := setup(t)
	rep, err := p.RunCtx(ctx, scenario(sensors.Phase{Duration: 2 * time.Minute, Activity: rules.CtxStill}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.PacketsUploaded != rep.PacketsTotal || rep.PacketsSkipped != 0 || rep.PacketsDiscarded != 0 {
		t.Errorf("report = %+v", rep)
	}
	if rep.UploadFraction() != 1.0 {
		t.Errorf("upload fraction = %v", rep.UploadFraction())
	}
	if svc.SegmentCount() == 0 {
		t.Error("store should have records")
	}
	if rep.BytesUploaded == 0 || rep.RecordsWritten == 0 {
		t.Errorf("report = %+v", rep)
	}
}

func TestRuleAwareNoRulesSkipsAll(t *testing.T) {
	ctx := context.Background()
	svc, p := setup(t)
	p.RuleAware = true
	rep, err := p.RunCtx(ctx, scenario(sensors.Phase{Duration: 2 * time.Minute, Activity: rules.CtxStill}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.PacketsSkipped != rep.PacketsTotal || rep.PacketsUploaded != 0 {
		t.Errorf("report = %+v", rep)
	}
	if svc.SegmentCount() != 0 {
		t.Error("nothing should reach the store")
	}
}

func setRules(t *testing.T, svc *datastore.Service, p *Phone, ruleJSON string) {
	t.Helper()
	if err := svc.SetRules(p.Key, []byte(ruleJSON)); err != nil {
		t.Fatal(err)
	}
}

func TestRuleAwareAllowAllUploadsAll(t *testing.T) {
	ctx := context.Background()
	svc, p := setup(t)
	p.RuleAware = true
	setRules(t, svc, p, `[{"Action":"Allow"}]`)
	rep, err := p.RunCtx(ctx, scenario(sensors.Phase{Duration: 2 * time.Minute, Activity: rules.CtxStill}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.PacketsUploaded != rep.PacketsTotal {
		t.Errorf("report = %+v", rep)
	}
}

func TestRuleAwareDiscardsDeniedContext(t *testing.T) {
	ctx := context.Background()
	// Alice's §6 rule: stop collecting stress-related sensors while
	// driving. We model the storyline with a deny-everything-while-driving
	// rule: driving packets are collected (context must be inferred first)
	// and then discarded.
	svc, p := setup(t)
	p.RuleAware = true
	setRules(t, svc, p, `[
	  {"Action":"Allow"},
	  {"Context":["Drive"],"Action":"Deny"}
	]`)
	rep, err := p.RunCtx(ctx, scenario(
		sensors.Phase{Duration: 2 * time.Minute, Activity: rules.CtxStill},
		sensors.Phase{Duration: 2 * time.Minute, Activity: rules.CtxDrive, Heading: 90},
		sensors.Phase{Duration: 2 * time.Minute, Activity: rules.CtxStill},
	))
	if err != nil {
		t.Fatal(err)
	}
	if rep.PacketsDiscarded == 0 {
		t.Fatalf("driving packets should be discarded: %+v", rep)
	}
	if rep.PacketsUploaded == 0 {
		t.Fatalf("still packets should be uploaded: %+v", rep)
	}
	// Roughly one third of the session is driving; allow slop for window
	// effects at phase boundaries.
	frac := rep.UploadFraction()
	if frac < 0.5 || frac > 0.85 {
		t.Errorf("upload fraction = %.2f, want ~2/3", frac)
	}
	if rep.PacketsSkipped != 0 {
		t.Errorf("context-conditioned rules require collection, not skipping: %+v", rep)
	}
	_ = svc
}

func TestRuleAwareSkipsDeniedLocation(t *testing.T) {
	ctx := context.Background()
	// "deny accelerometer data at home" generalized: share only at UCLA.
	// Everything recorded at home can be skipped without collection
	// because the decision needs no context.
	svc, p := setup(t)
	p.RuleAware = true
	rect, _ := geo.NewRect(geo.Point{Lat: 34.05, Lon: -118.46}, geo.Point{Lat: 34.08, Lon: -118.43})
	if err := svc.DefinePlace(p.Key, "UCLA", geo.Region{Rect: rect}); err != nil {
		t.Fatal(err)
	}
	setRules(t, svc, p, `[{"LocationLabel":["UCLA"],"Action":"Allow"}]`)
	// The scenario stays at home the whole time.
	rep, err := p.RunCtx(ctx, scenario(sensors.Phase{Duration: 2 * time.Minute, Activity: rules.CtxStill}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.PacketsSkipped != rep.PacketsTotal {
		t.Errorf("home packets should be skipped pre-collection: %+v", rep)
	}
	if rep.PacketsDiscarded != 0 || rep.PacketsUploaded != 0 {
		t.Errorf("report = %+v", rep)
	}
}

func TestRuleAwareTimeWindow(t *testing.T) {
	ctx := context.Background()
	// Share only 8:00-8:02am; the scenario runs 8:00-8:04.
	svc, p := setup(t)
	p.RuleAware = true
	setRules(t, svc, p, `[
	  {"TimeRange":{"Start":"2011-02-16T08:00:00Z","End":"2011-02-16T08:02:00Z"},"Action":"Allow"}
	]`)
	rep, err := p.RunCtx(ctx, scenario(sensors.Phase{Duration: 4 * time.Minute, Activity: rules.CtxStill}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.PacketsSkipped == 0 || rep.PacketsUploaded == 0 {
		t.Fatalf("expected a mix of uploaded and skipped: %+v", rep)
	}
	frac := rep.UploadFraction()
	if frac < 0.35 || frac > 0.65 {
		t.Errorf("upload fraction = %.2f, want ~1/2", frac)
	}
	_ = svc
}

func TestUploadedDataIsAnnotatedAndQueryable(t *testing.T) {
	ctx := context.Background()
	svc, p := setup(t)
	setRules(t, svc, p, `[{"Action":"Allow"}]`)
	if _, err := p.RunCtx(ctx, scenario(
		sensors.Phase{Duration: 2 * time.Minute, Activity: rules.CtxDrive, Heading: 45},
	)); err != nil {
		t.Fatal(err)
	}
	bob, err := svc.RegisterConsumer("bob")
	if err != nil {
		t.Fatal(err)
	}
	rels, err := svc.QueryCtx(ctx, bob.Key, &query.Query{Contexts: []string{"Drive"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) == 0 {
		t.Fatal("driving spans should be queryable by context")
	}
}

func TestRunWithoutStore(t *testing.T) {
	ctx := context.Background()
	p := &Phone{Contributor: "alice"}
	if _, err := p.RunCtx(ctx, scenario(sensors.Phase{Duration: time.Minute, Activity: rules.CtxStill})); err == nil {
		t.Error("missing store should error")
	}
}

func TestRunInvalidScenario(t *testing.T) {
	ctx := context.Background()
	_, p := setup(t)
	if _, err := p.RunCtx(ctx, &sensors.Scenario{}); err == nil {
		t.Error("invalid scenario should error")
	}
}

func TestCollectionDecisionHints(t *testing.T) {
	// Direct engine-level checks of the §5.3 hint logic.
	mk := func(json string) *rules.Engine {
		rs, err := rules.UnmarshalRuleSet([]byte(json))
		if err != nil {
			t.Fatal(err)
		}
		e, err := rules.NewEngine(rs, nil)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	at := t0
	loc := home

	if got := mk(`[{"Action":"Allow"}]`).CollectionDecision(at, loc); got != rules.CollectShare {
		t.Errorf("allow-all hint = %v", got)
	}
	if got := mk(`[{"Context":["Drive"],"Action":"Allow"}]`).CollectionDecision(at, loc); got != rules.CollectNeedsContext {
		t.Errorf("context-allow hint = %v", got)
	}
	e := mk(`[{"TimeRange":{"Start":"2030-01-01T00:00:00Z"},"Action":"Allow"}]`)
	if got := e.CollectionDecision(at, loc); got != rules.CollectSkip {
		t.Errorf("future-only hint = %v", got)
	}
	// Consumer-specific allow still means somebody gets data.
	if got := mk(`[{"Consumer":["Bob"],"Action":"Allow"}]`).CollectionDecision(at, loc); got != rules.CollectShare {
		t.Errorf("consumer-scoped hint = %v", got)
	}
	// Group-scoped allow likewise.
	if got := mk(`[{"Group":["Study"],"Action":"Allow"}]`).CollectionDecision(at, loc); got != rules.CollectShare {
		t.Errorf("group-scoped hint = %v", got)
	}
	// SharedWithAnyone honours context-conditioned denies.
	e = mk(`[{"Action":"Allow"},{"Context":["Drive"],"Action":"Deny"}]`)
	if e.SharedWithAnyone(at, loc, []string{rules.CtxDrive}) {
		t.Error("driving should share nothing")
	}
	if !e.SharedWithAnyone(at, loc, []string{rules.CtxWalk}) {
		t.Error("walking should share")
	}
	if rules.CollectSkip.String() != "Skip" || rules.CollectNeedsContext.String() != "NeedsContext" ||
		rules.CollectShare.String() != "Share" {
		t.Error("hint strings wrong")
	}
}
