package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"sensorsafe/internal/abstraction"
	"sensorsafe/internal/broker"
	"sensorsafe/internal/query"
	"sensorsafe/internal/rules"
	"sensorsafe/internal/sensors"
)

// TestScaleSoak runs a study-sized deployment end to end: 40 contributors
// across 8 institutional stores, each recording a scripted session with
// mixed privacy postures, then a coordinator searching, bulk-downloading,
// and summarizing. It guards against cross-contributor leaks and
// accounting errors at scale.
func TestScaleSoak(t *testing.T) {
	ctx := context.Background()
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const (
		contributors = 40
		stores       = 8
	)
	storeNames := make([]string, stores)
	for i := range storeNames {
		storeNames[i] = fmt.Sprintf("inst-%d", i)
	}
	n := network(t, storeNames...)
	if err := n.Broker.CreateStudy("Soak"); err != nil {
		t.Fatal(err)
	}

	restrictive := 0
	for i := 0; i < contributors; i++ {
		c, err := n.NewContributor(storeNames[i%stores], fmt.Sprintf("p%03d", i))
		if err != nil {
			t.Fatal(err)
		}
		ruleJSON := `[{"Group":["Soak"],"Action":"Allow"}]`
		switch i % 3 {
		case 1:
			restrictive++
			ruleJSON = `[
			  {"Group":["Soak"],"Action":"Allow"},
			  {"Context":["Drive"],"Action":{"Abstraction":{"Stress":"NotShared"}}}
			]`
		case 2:
			restrictive++
			ruleJSON = `[
			  {"Group":["Soak"],"Action":"Allow"},
			  {"Action":{"Abstraction":{"Location":"City"}}}
			]`
		}
		if err := c.SetRules(ruleJSON); err != nil {
			t.Fatal(err)
		}
		if err := c.AssignConsumerGroups("coordinator", []string{"Soak"}); err != nil {
			t.Fatal(err)
		}
		day := &sensors.Scenario{
			Start:  t0.Add(time.Duration(i) * time.Minute),
			Origin: home, Seed: int64(i),
			Phases: []sensors.Phase{
				{Duration: 45 * time.Second, Activity: rules.CtxStill, Stressed: i%2 == 0},
				{Duration: 45 * time.Second, Activity: rules.CtxDrive, Stressed: true, Heading: float64(i * 13)},
			},
		}
		if _, err := c.RecordDay(ctx, day, false); err != nil {
			t.Fatal(err)
		}
	}

	coord, err := n.NewConsumer("coordinator")
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.JoinStudy("Soak"); err != nil {
		t.Fatal(err)
	}
	dir, err := coord.Directory()
	if err != nil {
		t.Fatal(err)
	}
	if len(dir) != contributors {
		t.Fatalf("directory = %d entries, want %d", len(dir), contributors)
	}

	// Search: who shares raw stress data while driving? Exactly the i%3==0
	// cohort (i%3==1 hides stress while driving; i%3==2 abstracts location,
	// which blocks GPS but not ECG — so they still match).
	match, err := coord.Search(ctx, &broker.SearchQuery{
		Sensors:        []string{"ECG", "Respiration"},
		ActiveContexts: []string{rules.CtxDrive},
		Reference:      t0,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantMatch := 0
	for i := 0; i < contributors; i++ {
		if i%3 != 1 {
			wantMatch++
		}
	}
	if len(match) != wantMatch {
		t.Fatalf("search matched %d, want %d", len(match), wantMatch)
	}

	// Bulk download everything and check global invariants.
	all := make([]string, 0, contributors)
	for i := 0; i < contributors; i++ {
		all = append(all, fmt.Sprintf("p%03d", i))
	}
	rels, err := coord.QueryMany(ctx, all, &query.Query{})
	if err != nil {
		t.Fatal(err)
	}
	sum := abstraction.Summarize(rels)
	if len(sum.Contributors) != contributors {
		t.Errorf("releases cover %d contributors, want %d", len(sum.Contributors), contributors)
	}
	if sum.RawSamples == 0 {
		t.Error("no raw samples released")
	}
	// Every release belongs to a contributor the coordinator asked for,
	// and driving spans from the stress-hiding cohort carry no stress.
	names := make(map[string]bool, len(all))
	for _, name := range all {
		names[name] = true
	}
	for _, rel := range rels {
		if !names[rel.Contributor] {
			t.Fatalf("release from unexpected contributor %q", rel.Contributor)
		}
	}
	for i := 1; i < contributors; i += 3 { // the stress-hiding cohort
		name := fmt.Sprintf("p%03d", i)
		for _, rel := range rels {
			if rel.Contributor != name {
				continue
			}
			driving := false
			for _, c := range rel.Contexts {
				if c.Context == rules.CtxDrive {
					driving = true
				}
			}
			if !driving {
				continue
			}
			for _, c := range rel.Contexts {
				if c.Context == rules.CtxStressed {
					t.Fatalf("%s leaked stress while driving", name)
				}
			}
			if rel.Segment != nil && rel.Segment.HasChannel("ECG") {
				t.Fatalf("%s leaked ECG while driving", name)
			}
		}
	}
	// The location-abstracting cohort never releases coordinates.
	for i := 2; i < contributors; i += 3 {
		name := fmt.Sprintf("p%03d", i)
		for _, rel := range rels {
			if rel.Contributor == name && rel.Location.Point != nil {
				t.Fatalf("%s leaked exact coordinates", name)
			}
		}
	}
}
