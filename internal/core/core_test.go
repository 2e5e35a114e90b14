package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"sensorsafe/internal/broker"
	"sensorsafe/internal/geo"
	"sensorsafe/internal/query"
	"sensorsafe/internal/rules"
	"sensorsafe/internal/sensors"
	"sensorsafe/internal/wavesegment"
)

var (
	t0   = time.Date(2011, 2, 16, 8, 0, 0, 0, time.UTC) // Wednesday
	home = geo.Point{Lat: 34.0250, Lon: -118.4950}
)

func network(t *testing.T, storeNames ...string) *Network {
	t.Helper()
	n := NewNetwork()
	t.Cleanup(func() { n.Close() })
	for _, name := range storeNames {
		if _, err := n.AddStore(name, ""); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

func TestNetworkWiring(t *testing.T) {
	n := network(t, "store-1", "store-2")
	if got := n.StoreNames(); len(got) != 2 || got[0] != "store-1" {
		t.Fatalf("StoreNames = %v", got)
	}
	if _, err := n.AddStore("store-1", ""); err == nil {
		t.Error("duplicate store name should fail")
	}
	if _, ok := n.Store("store-3"); ok {
		t.Error("unknown store should miss")
	}
	if _, err := n.NewContributor("store-3", "alice"); err == nil {
		t.Error("contributor on unknown store should fail")
	}
}

func TestContributorAppearsInBrokerDirectory(t *testing.T) {
	n := network(t, "store-1")
	if _, err := n.NewContributor("store-1", "alice"); err != nil {
		t.Fatal(err)
	}
	bob, err := n.NewConsumer("bob")
	if err != nil {
		t.Fatal(err)
	}
	dir, err := bob.Directory()
	if err != nil {
		t.Fatal(err)
	}
	if len(dir) != 1 || dir[0].Name != "alice" || dir[0].StoreAddr != "store-1" {
		t.Fatalf("directory = %+v", dir)
	}
}

// TestSection6Storyline reproduces the paper's §6 application example end
// to end: Alice the contributor, Bob the behavioural-study coordinator,
// and Coach the personal health coach.
func TestSection6Storyline(t *testing.T) {
	ctx := context.Background()
	n := network(t, "alice-store")
	alice, err := n.NewContributor("alice-store", "alice")
	if err != nil {
		t.Fatal(err)
	}

	// Alice labels home and defines her rules:
	//  1. researchers (the study group) get everything,
	//  2. her health coach gets accelerometer data only,
	//  3. stress is hidden while driving,
	//  4. accelerometer data at home is denied.
	homeRect, _ := geo.NewRect(geo.Point{Lat: 34.0249, Lon: -118.4951}, geo.Point{Lat: 34.0251, Lon: -118.4949})
	if err := alice.DefinePlace("home", geo.Region{Rect: homeRect}); err != nil {
		t.Fatal(err)
	}
	if err := alice.SetRules(`[
	  {"Group": ["StressStudy"], "Action": "Allow"},
	  {"Consumer": ["Coach"], "Sensor": ["Accelerometer"], "Action": "Allow"},
	  {"Context": ["Drive"], "Action": {"Abstraction": {"Stress": "NotShared"}}},
	  {"LocationLabel": ["home"], "Sensor": ["Accelerometer"], "Action": "Deny"}
	]`); err != nil {
		t.Fatal(err)
	}
	if err := alice.AssignConsumerGroups("Bob", []string{"StressStudy"}); err != nil {
		t.Fatal(err)
	}

	// Alice's day: calm at home, stressful drive, stressed at a desk away
	// from home.
	day := &sensors.Scenario{
		Start: t0, Origin: home, Seed: 11,
		Phases: []sensors.Phase{
			{Duration: 2 * time.Minute, Activity: rules.CtxStill},
			{Duration: 2 * time.Minute, Activity: rules.CtxDrive, Stressed: true, Heading: 80},
			{Duration: 2 * time.Minute, Activity: rules.CtxStill, Stressed: true},
		},
	}
	if _, err := alice.RecordDay(ctx, day, false); err != nil {
		t.Fatal(err)
	}

	// Alice reviews her own data: everything is there, unfiltered.
	own, err := alice.ReviewData(&query.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(own) == 0 {
		t.Fatal("alice sees no own data")
	}

	// Bob the researcher (in the study) queries through the broker.
	bob, err := n.NewConsumer("Bob")
	if err != nil {
		t.Fatal(err)
	}
	rels, err := bob.QueryCtx(ctx, "alice", &query.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) == 0 {
		t.Fatal("Bob should receive data")
	}
	for _, rel := range rels {
		driving := false
		for _, c := range rel.Contexts {
			if c.Context == rules.CtxDrive {
				driving = true
			}
		}
		for _, c := range rel.Contexts {
			if driving && (c.Context == rules.CtxStressed || c.Context == rules.CtxNotStressed) {
				t.Error("stress label leaked while driving")
			}
		}
		if driving && rel.Segment != nil &&
			(rel.Segment.HasChannel(wavesegment.ChannelECG) || rel.Segment.HasChannel(wavesegment.ChannelRespiration)) {
			t.Error("stress-bearing raw channels leaked while driving")
		}
		// At home, accel is denied.
		if rel.Location.Point != nil && homeRect.Contains(*rel.Location.Point) &&
			rel.Segment != nil && rel.Segment.HasChannel(wavesegment.ChannelAccelX) {
			t.Error("accelerometer leaked at home")
		}
	}

	// The coach gets accelerometer only — and never at home.
	coach, err := n.NewConsumer("Coach")
	if err != nil {
		t.Fatal(err)
	}
	coachRels, err := coach.QueryCtx(ctx, "alice", &query.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(coachRels) == 0 {
		t.Fatal("coach should receive the away-from-home accel data")
	}
	for _, rel := range coachRels {
		if rel.Segment == nil {
			continue
		}
		for _, ch := range rel.Segment.Channels {
			switch ch {
			case wavesegment.ChannelAccelX, wavesegment.ChannelAccelY, wavesegment.ChannelAccelZ:
			default:
				t.Errorf("coach received channel %s", ch)
			}
		}
		if rel.Location.Point != nil && homeRect.Contains(*rel.Location.Point) {
			t.Error("coach received data recorded at home")
		}
	}

	// Eve, an unrelated consumer, receives nothing.
	eve, err := n.NewConsumer("Eve")
	if err != nil {
		t.Fatal(err)
	}
	eveRels, err := eve.QueryCtx(ctx, "alice", &query.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(eveRels) != 0 {
		t.Errorf("Eve received %d releases", len(eveRels))
	}
}

func TestBrokerSearchAcrossStores(t *testing.T) {
	ctx := context.Background()
	// 20 contributors across 4 institutional stores (the IRB setting);
	// half share stress while driving, half deny it. Bob's search must
	// return exactly the sharing half.
	n := network(t, "inst-1", "inst-2", "inst-3", "inst-4")
	var wantMatch []string
	for i := 0; i < 20; i++ {
		store := fmt.Sprintf("inst-%d", i%4+1)
		name := fmt.Sprintf("p%02d", i)
		c, err := n.NewContributor(store, name)
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := c.SetRules(`[{"Action":"Allow"}]`); err != nil {
				t.Fatal(err)
			}
			wantMatch = append(wantMatch, name)
		} else {
			if err := c.SetRules(`[
			  {"Action":"Allow"},
			  {"Context":["Drive"],"Action":{"Abstraction":{"Stress":"NotShared"}}}
			]`); err != nil {
				t.Fatal(err)
			}
		}
	}
	bob, err := n.NewConsumer("Bob")
	if err != nil {
		t.Fatal(err)
	}
	got, err := bob.Search(ctx, &broker.SearchQuery{
		Sensors:        []string{"ECG", "Respiration"},
		ActiveContexts: []string{rules.CtxDrive},
		Reference:      t0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(wantMatch) {
		t.Fatalf("search returned %d, want %d: %v", len(got), len(wantMatch), got)
	}
	for i := range wantMatch {
		if got[i] != wantMatch[i] {
			t.Errorf("search[%d] = %s, want %s", i, got[i], wantMatch[i])
		}
	}
	// Save and recall the list.
	if err := bob.SaveList("drivers", got); err != nil {
		t.Fatal(err)
	}
	back, err := bob.List("drivers")
	if err != nil || len(back) != len(got) {
		t.Fatalf("list = %v, %v", back, err)
	}
	// Query the saved list; every member should yield data once uploaded.
	c0, _ := n.Store("inst-1")
	_ = c0
}

func TestQueryManyAggregates(t *testing.T) {
	ctx := context.Background()
	n := network(t, "s1", "s2")
	for i, store := range []string{"s1", "s2"} {
		c, err := n.NewContributor(store, fmt.Sprintf("c%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.SetRules(`[{"Action":"Allow"}]`); err != nil {
			t.Fatal(err)
		}
		day := &sensors.Scenario{
			Start: t0, Origin: home, Seed: int64(i),
			Phases: []sensors.Phase{{Duration: time.Minute, Activity: rules.CtxStill}},
		}
		if _, err := c.RecordDay(ctx, day, false); err != nil {
			t.Fatal(err)
		}
	}
	bob, _ := n.NewConsumer("bob")
	rels, err := bob.QueryMany(ctx, []string{"c0", "c1"}, &query.Query{})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, rel := range rels {
		seen[rel.Contributor] = true
	}
	if !seen["c0"] || !seen["c1"] {
		t.Errorf("contributors seen = %v", seen)
	}
	if _, err := bob.QueryMany(ctx, []string{"ghost"}, &query.Query{}); err == nil {
		t.Error("unknown contributor should fail")
	}
}

func TestStudyMembershipFlow(t *testing.T) {
	ctx := context.Background()
	n := network(t, "s1")
	alice, _ := n.NewContributor("s1", "alice")
	if err := alice.SetRules(`[{"Group":["StressStudy"],"Action":"Allow"}]`); err != nil {
		t.Fatal(err)
	}
	if err := n.Broker.CreateStudy("StressStudy"); err != nil {
		t.Fatal(err)
	}
	bob, _ := n.NewConsumer("bob")
	if err := bob.JoinStudy("StressStudy"); err != nil {
		t.Fatal(err)
	}
	// Broker search sees Bob as a member.
	got, err := bob.Search(ctx, &broker.SearchQuery{Sensors: []string{"ECG"}, Reference: t0})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "alice" {
		t.Fatalf("study search = %v", got)
	}
}
