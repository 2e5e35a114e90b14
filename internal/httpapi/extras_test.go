package httpapi

import (
	"context"
	"strings"
	"testing"
	"time"

	"sensorsafe/internal/broker"
	"sensorsafe/internal/geo"
	"sensorsafe/internal/query"
	"sensorsafe/internal/rules"
	"sensorsafe/internal/timeutil"
	"sensorsafe/internal/wavesegment"
)

// geoRect builds a rect from corner coordinates.
func geoRect(minLat, minLon, maxLat, maxLon float64) (geo.Rect, error) {
	return geo.NewRect(geo.Point{Lat: minLat, Lon: minLon}, geo.Point{Lat: maxLat, Lon: maxLon})
}

func timeutilRepeated(days, hours []string) (timeutil.Repeated, error) {
	return timeutil.ParseRepeated(days, hours)
}

func timeutilRange(from, to string) (timeutil.Range, error) {
	a, err := time.Parse(time.RFC3339, from)
	if err != nil {
		return timeutil.Range{}, err
	}
	b, err := time.Parse(time.RFC3339, to)
	if err != nil {
		return timeutil.Range{}, err
	}
	return timeutil.NewRange(a, b)
}

func TestRotateKeyOverHTTP(t *testing.T) {
	ctx := context.Background()
	d := deploy(t)
	alice, err := d.storeClient.RegisterCtx(ctx, "alice", "contributor")
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := d.storeClient.RotateKeyCtx(ctx, alice.Key)
	if err != nil {
		t.Fatal(err)
	}
	if fresh == alice.Key || fresh == "" {
		t.Fatalf("rotation returned %q", fresh)
	}
	// Old key dead, new key live.
	if _, err := d.storeClient.QueryOwnCtx(ctx, alice.Key, &query.Query{}); err == nil || !strings.Contains(err.Error(), "401") {
		t.Errorf("old key after rotation: %v", err)
	}
	if _, err := d.storeClient.QueryOwnCtx(ctx, fresh, &query.Query{}); err != nil {
		t.Errorf("new key: %v", err)
	}
	if _, err := d.storeClient.RotateKeyCtx(ctx, "bogus"); err == nil {
		t.Error("bad key rotation should fail")
	}
}

func TestSearchWireFullOverHTTP(t *testing.T) {
	ctx := context.Background()
	// Exercise every field of the search wire format: context levels,
	// explicit region, repeat window, absolute range, reference.
	d := deploy(t)
	alice, err := d.storeClient.RegisterCtx(ctx, "alice", "contributor")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.storeClient.SetRulesCtx(ctx, alice.Key, []byte(`[{"Action":"Allow"}]`)); err != nil {
		t.Fatal(err)
	}
	bob, _ := d.brokerClient.RegisterConsumerCtx(ctx, "bob")

	rect, _ := geoRect(34, -119, 35, -118)
	rep, _ := timeutilRepeated([]string{"Mon", "Tue", "Wed", "Thu", "Fri"}, []string{"9:00am", "6:00pm"})
	rng, _ := timeutilRange("2011-02-01T00:00:00Z", "2011-03-01T00:00:00Z")
	q := &broker.SearchQuery{
		Sensors:        []string{"ECG"},
		Contexts:       map[rules.Category]rules.Level{rules.CategoryStress: rules.LevelBinary},
		Region:         rect,
		RepeatTime:     rep,
		TimeRange:      rng,
		ActiveContexts: []string{rules.CtxWalk},
		Reference:      t0,
	}
	got, err := d.brokerClient.SearchCtx(ctx, bob.Key, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "alice" {
		t.Fatalf("full-wire search = %v", got)
	}
	// Bad wire inputs map to errors, not panics.
	bad := []*broker.SearchQuery{
		{Contexts: map[rules.Category]rules.Level{"Altitude": rules.LevelRaw}},
	}
	for _, bq := range bad {
		if _, err := d.brokerClient.SearchCtx(ctx, bob.Key, bq); err == nil {
			t.Errorf("expected error for %+v", bq)
		}
	}
}

func TestAssignConsumerGroupsOverHTTP(t *testing.T) {
	ctx := context.Background()
	d := deploy(t)
	alice, _ := d.storeClient.RegisterCtx(ctx, "alice", "contributor")
	if err := d.storeClient.SetRulesCtx(ctx, alice.Key, []byte(`[{"Group":["Study"],"Action":"Allow"}]`)); err != nil {
		t.Fatal(err)
	}
	seg := &wavesegment.Segment{
		Contributor: "alice", Start: t0, Interval: time.Second,
		Location: home, Channels: []string{wavesegment.ChannelECG},
		Values: [][]float64{{1}, {2}},
	}
	if _, err := d.storeClient.UploadCtx(ctx, alice.Key, []*wavesegment.Segment{seg}); err != nil {
		t.Fatal(err)
	}
	bob, _ := d.storeClient.RegisterCtx(ctx, "bob", "consumer")
	rels, _ := d.storeClient.QueryCtx(ctx, bob.Key, &query.Query{})
	if len(rels) != 0 {
		t.Fatal("non-member should get nothing")
	}
	if err := d.storeClient.AssignConsumerGroupsCtx(ctx, alice.Key, "bob", []string{"Study"}); err != nil {
		t.Fatal(err)
	}
	rels, err := d.storeClient.QueryCtx(ctx, bob.Key, &query.Query{})
	if err != nil || len(rels) != 1 {
		t.Fatalf("member releases = %v, %v", rels, err)
	}
}

func TestRulesForOverHTTPWithPlaces(t *testing.T) {
	ctx := context.Background()
	// RulesFor must download places too, so label-conditioned rules work on
	// the phone.
	d := deploy(t)
	alice, _ := d.storeClient.RegisterCtx(ctx, "alice", "contributor")
	rect, _ := geoRect(34.02, -118.50, 34.03, -118.49)
	if err := d.storeClient.DefinePlaceCtx(ctx, alice.Key, "home", geo.Region{Rect: rect}); err != nil {
		t.Fatal(err)
	}
	if err := d.storeClient.SetRulesCtx(ctx, alice.Key, []byte(`[{"LocationLabel":["home"],"Action":"Allow"}]`)); err != nil {
		t.Fatal(err)
	}
	e, err := d.storeClient.RulesForCtx(ctx, alice.Key)
	if err != nil || e == nil {
		t.Fatalf("RulesFor = %v, %v", e, err)
	}
	inHome := e.SharedWithAnyone(t0, geo.Point{Lat: 34.025, Lon: -118.495}, nil)
	away := e.SharedWithAnyone(t0, geo.Point{Lat: 35, Lon: -117}, nil)
	if !inHome || away {
		t.Errorf("compiled engine wrong: home=%v away=%v", inHome, away)
	}
	// No rules yet → nil engine, no error.
	carol, _ := d.storeClient.RegisterCtx(ctx, "carol", "contributor")
	e, err = d.storeClient.RulesForCtx(ctx, carol.Key)
	if err != nil || e != nil {
		t.Errorf("empty RulesFor = %v, %v", e, err)
	}
}

func TestRecommendOverHTTP(t *testing.T) {
	ctx := context.Background()
	d := deploy(t)
	alice, err := d.storeClient.RegisterCtx(ctx, "alice", "contributor")
	if err != nil {
		t.Fatal(err)
	}
	seg := &wavesegment.Segment{
		Contributor: "alice", Start: t0, Interval: time.Second,
		Location: home, Channels: []string{wavesegment.ChannelECG},
	}
	for i := 0; i < 600; i++ { // 10 minutes
		seg.Values = append(seg.Values, []float64{0})
	}
	_ = seg.Annotate(rules.CtxStressed, t0, t0.Add(5*time.Minute))
	_ = seg.Annotate(rules.CtxDrive, t0, t0.Add(4*time.Minute))
	if _, err := d.storeClient.UploadCtx(ctx, alice.Key, []*wavesegment.Segment{seg}); err != nil {
		t.Fatal(err)
	}

	sugs, err := d.storeClient.RecommendCtx(ctx, alice.Key, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sugs) == 0 {
		t.Fatal("expected suggestions over HTTP")
	}
	if sugs[0].Sensitive != rules.CategoryStress {
		t.Errorf("top suggestion = %+v", sugs[0])
	}
	if sugs[0].RuleJSON == "" || !strings.Contains(sugs[0].Reason, "driving") {
		t.Errorf("suggestion fields = %+v", sugs[0])
	}
	// Custom thresholds travel.
	none, err := d.storeClient.RecommendCtx(ctx, alice.Key, 0.99, 30*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Errorf("impossible thresholds should yield nothing: %+v", none)
	}
	// Consumers cannot mine.
	bob, _ := d.storeClient.RegisterCtx(ctx, "bob", "consumer")
	if _, err := d.storeClient.RecommendCtx(ctx, bob.Key, 0, 0); err == nil || !strings.Contains(err.Error(), "403") {
		t.Errorf("consumer recommend: %v", err)
	}
}
