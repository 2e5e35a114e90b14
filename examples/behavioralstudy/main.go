// Behavioral study: the paper's §6 scenario at full scale.
//
// Bob coordinates a stress study with 20 participants whose data lives on
// four institutional remote data stores (the IRB requires each institution
// to host its own participants — §1). Every participant wears a chest band
// and carries a phone through a scripted day. Some participants, like
// Alice, are uncomfortable sharing stress while driving and add a
// restriction rule. Bob uses the broker to search for participants whose
// rules share enough data for his driving-stress analysis, saves the list,
// and downloads their data directly from the stores.
//
// Run with: go run ./examples/behavioralstudy
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"sensorsafe/internal/broker"
	"sensorsafe/internal/core"
	"sensorsafe/internal/geo"
	"sensorsafe/internal/query"
	"sensorsafe/internal/rules"
	"sensorsafe/internal/sensors"
)

const participants = 20

func main() {
	ctx := context.Background()
	net := core.NewNetwork()
	defer net.Close()

	// Four institutional stores (the multi-institution IRB setting).
	institutions := []string{"ucla-store", "osu-store", "memphis-store", "cmu-store"}
	for _, name := range institutions {
		if _, err := net.AddStore(name, ""); err != nil {
			log.Fatal(err)
		}
	}

	if err := net.Broker.CreateStudy("StressStudy"); err != nil {
		log.Fatal(err)
	}

	// Enroll participants. Everyone shares with the study; participants
	// with an odd index are, like Alice, uncomfortable sharing stress
	// while driving and add the restriction.
	start := time.Date(2011, 2, 16, 8, 0, 0, 0, time.UTC)
	origin := geo.Point{Lat: 34.0250, Lon: -118.4950}
	restricted := 0
	for i := 0; i < participants; i++ {
		name := fmt.Sprintf("participant-%02d", i)
		c, err := net.NewContributor(institutions[i%len(institutions)], name)
		if err != nil {
			log.Fatal(err)
		}
		ruleJSON := `[{"Group": ["StressStudy"], "Action": "Allow"}]`
		if i%2 == 1 {
			restricted++
			ruleJSON = `[
			  {"Group": ["StressStudy"], "Action": "Allow"},
			  {"Context": ["Drive"], "Action": {"Abstraction": {"Stress": "NotShared"}}}
			]`
		}
		if err := c.SetRules(ruleJSON); err != nil {
			log.Fatal(err)
		}
		if err := c.AssignConsumerGroups("Bob", []string{"StressStudy"}); err != nil {
			log.Fatal(err)
		}

		// Each participant records a miniature day: calm desk work, a
		// stressful drive, a calm walk.
		day := &sensors.Scenario{
			Start: start, Origin: origin, Seed: int64(i),
			Phases: []sensors.Phase{
				{Duration: 90 * time.Second, Activity: rules.CtxStill},
				{Duration: 90 * time.Second, Activity: rules.CtxDrive, Stressed: true, Heading: float64(i * 17)},
				{Duration: 60 * time.Second, Activity: rules.CtxWalk, Heading: float64(i * 31)},
			},
		}
		if _, err := c.RecordDay(ctx, day, false); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("enrolled %d participants across %d institutional stores (%d restrict driving stress)\n",
		participants, len(institutions), restricted)

	// Bob joins the study and searches for participants who share stress
	// data *while driving* — the broker evaluates every replicated rule
	// set without touching any sensor data.
	bob, err := net.NewConsumer("Bob")
	if err != nil {
		log.Fatal(err)
	}
	if err := bob.JoinStudy("StressStudy"); err != nil {
		log.Fatal(err)
	}
	match, err := bob.Search(ctx, &broker.SearchQuery{
		Sensors:        []string{"ECG", "Respiration"},
		ActiveContexts: []string{rules.CtxDrive},
		Reference:      start,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("broker search: %d/%d participants share ECG+Respiration while driving\n",
		len(match), participants)
	if err := bob.SaveList("driving-stress-cohort", match); err != nil {
		log.Fatal(err)
	}

	// Bob downloads the cohort's driving spans directly from the stores.
	cohort, err := bob.List("driving-stress-cohort")
	if err != nil {
		log.Fatal(err)
	}
	rels, err := bob.QueryMany(ctx, cohort, &query.Query{Contexts: []string{rules.CtxDrive}})
	if err != nil {
		log.Fatal(err)
	}
	stressSpans, samples := 0, 0
	for _, rel := range rels {
		for _, c := range rel.Contexts {
			if c.Context == rules.CtxStressed {
				stressSpans++
			}
		}
		if rel.Segment != nil {
			samples += rel.Segment.NumSamples()
		}
	}
	fmt.Printf("downloaded %d driving release spans (%d raw samples); %d carry stress labels\n",
		len(rels), samples, stressSpans)

	// Control: querying a restricted participant yields driving spans
	// without stress information.
	ctrl, err := bob.QueryCtx(ctx, "participant-01", &query.Query{Contexts: []string{rules.CtxDrive}})
	if err != nil {
		log.Fatal(err)
	}
	leaked := 0
	for _, rel := range ctrl {
		for _, c := range rel.Contexts {
			if c.Context == rules.CtxStressed || c.Context == rules.CtxNotStressed {
				leaked++
			}
		}
		if rel.Segment != nil && (rel.Segment.HasChannel("ECG") || rel.Segment.HasChannel("Respiration")) {
			leaked++
		}
	}
	fmt.Printf("control (restricted participant-01): %d driving spans, %d stress leaks\n",
		len(ctrl), leaked)
}
