package core

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"sensorsafe/internal/geo"
	"sensorsafe/internal/phone"
	"sensorsafe/internal/query"
	"sensorsafe/internal/rules"
	"sensorsafe/internal/sensors"
)

// TestRuleAwareCollectionPreservesReleases is the paper's §5.3 safety
// property: data no rule would share is skipped or discarded on the phone,
// and consumers see exactly the same raw samples with rule-aware
// collection on as with it off. The policies sweep from share-everything
// (nothing saved) to share-nothing (every upload saved).
func TestRuleAwareCollectionPreservesReleases(t *testing.T) {
	ctx := context.Background()
	homeRect, err := geo.NewRect(
		geo.Point{Lat: home.Lat - 0.0002, Lon: home.Lon - 0.0002},
		geo.Point{Lat: home.Lat + 0.0002, Lon: home.Lon + 0.0002})
	if err != nil {
		t.Fatal(err)
	}
	const phase = 30 * time.Second
	// Wednesday 8:55: home (still), drive, office (stressed), drive back —
	// the office phase straddles 9:00 so the office-hours policy saves
	// part, not all, of the day.
	day := &sensors.Scenario{
		Start: time.Date(2011, 2, 16, 8, 55, 0, 0, time.UTC), Origin: home, Seed: 21,
		Phases: []sensors.Phase{
			{Duration: phase, Activity: rules.CtxStill},
			{Duration: phase, Activity: rules.CtxDrive, Heading: 80},
			{Duration: 2 * phase, Activity: rules.CtxStill, Stressed: true},
			{Duration: phase, Activity: rules.CtxDrive, Heading: 260},
		},
	}

	// run records the day under one policy and returns the phone's report
	// and every released sample as "time channels values", sorted.
	run := func(ruleJSON string, ruleAware bool) (*phone.Report, []string) {
		n := network(t, "s")
		alice, err := n.NewContributor("s", "alice")
		if err != nil {
			t.Fatal(err)
		}
		if err := alice.DefinePlace("home", geo.Region{Rect: homeRect}); err != nil {
			t.Fatal(err)
		}
		if err := alice.SetRules(ruleJSON); err != nil {
			t.Fatal(err)
		}
		rep, err := alice.RecordDay(ctx, day, ruleAware)
		if err != nil {
			t.Fatal(err)
		}
		bob, err := n.NewConsumer("bob")
		if err != nil {
			t.Fatal(err)
		}
		rels, err := bob.QueryCtx(ctx, "alice", &query.Query{})
		if err != nil {
			t.Fatal(err)
		}
		var samples []string
		for _, rel := range rels {
			if rel.Segment == nil {
				continue
			}
			for i, row := range rel.Segment.Values {
				samples = append(samples, fmt.Sprint(rel.Segment.SampleTime(i).UnixNano(), rel.Segment.Channels, row))
			}
		}
		sort.Strings(samples)
		return rep, samples
	}

	for _, p := range []struct {
		name, rules string
	}{
		{"share everything", `[{"Action":"Allow"}]`},
		{"deny while driving", `[{"Action":"Allow"},{"Context":["Drive"],"Action":"Deny"}]`},
		{"deny driving + home", `[{"Action":"Allow"},{"Context":["Drive"],"Action":"Deny"},{"LocationLabel":["home"],"Action":"Deny"}]`},
		{"office hours only", `[{"RepeatTime":{"Day":["Mon","Tue","Wed","Thu","Fri"],"HourMin":["9:00am","6:00pm"]},"Action":"Allow"}]`},
		{"share nothing", `[{"Action":"Deny"}]`},
	} {
		t.Run(p.name, func(t *testing.T) {
			naive, naiveSamples := run(p.rules, false)
			aware, awareSamples := run(p.rules, true)
			if fmt.Sprint(naiveSamples) != fmt.Sprint(awareSamples) {
				t.Errorf("rule-aware collection changed consumer-visible data: %d vs %d samples", len(naiveSamples), len(awareSamples))
			}
			if naive.BytesUploaded == 0 {
				t.Fatal("collect-all uploaded nothing")
			}
			switch p.name {
			case "share everything":
				if len(naiveSamples) == 0 {
					t.Error("share-everything released nothing")
				}
				if aware.BytesUploaded != naive.BytesUploaded {
					t.Errorf("saved %d of %d bytes, want 0", naive.BytesUploaded-aware.BytesUploaded, naive.BytesUploaded)
				}
			case "share nothing":
				if aware.BytesUploaded != 0 {
					t.Errorf("uploaded %d of %d bytes, want none", aware.BytesUploaded, naive.BytesUploaded)
				}
			}
		})
	}
}
