// Health coach: the paper's §6 personal-health-care scenario.
//
// Alice shares her daily activity with a personal coach (Philips
// DirectLife-style). She is comfortable sharing activity *levels* but not
// raw accelerometer traces, not anything recorded at home, and no location
// finer than city. The coach receives Moving/NotMoving labels with
// city-level location — the dependency closure guarantees the raw
// accelerometer never flows once activity is abstracted. (Time stays at
// full precision here so the coach can total her active minutes; adding
// "Time": "Hour" to the abstraction would deliberately destroy that.)
//
// Run with: go run ./examples/healthcoach
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"sensorsafe/internal/core"
	"sensorsafe/internal/geo"
	"sensorsafe/internal/query"
	"sensorsafe/internal/rules"
	"sensorsafe/internal/sensors"
)

func main() {
	ctx := context.Background()
	net := core.NewNetwork()
	defer net.Close()
	if _, err := net.AddStore("alice-store", ""); err != nil {
		log.Fatal(err)
	}
	alice, err := net.NewContributor("alice-store", "alice")
	if err != nil {
		log.Fatal(err)
	}

	home := geo.Point{Lat: 34.0250, Lon: -118.4950}
	homeRect, _ := geo.NewRect(
		geo.Point{Lat: home.Lat - 0.0002, Lon: home.Lon - 0.0002},
		geo.Point{Lat: home.Lat + 0.0002, Lon: home.Lon + 0.0002})
	if err := alice.DefinePlace("home", geo.Region{Rect: homeRect}); err != nil {
		log.Fatal(err)
	}

	// Coach sees binary activity with city-level location and hour-level
	// time; nothing at home; nobody else sees anything.
	err = alice.SetRules(`[
	  { "Consumer": ["Coach"], "Sensor": ["Accelerometer"], "Action": "Allow" },
	  { "Consumer": ["Coach"],
	    "Action": { "Abstraction": { "Activity": "Move/Not Move",
	                                 "Location": "City" } } },
	  { "LocationLabel": ["home"], "Action": "Deny" }
	]`)
	if err != nil {
		log.Fatal(err)
	}

	// Alice's afternoon: an hour-scaled mix of sitting at home, a run in
	// the park, a walk, and more sitting (away from home).
	day := &sensors.Scenario{
		Start: time.Date(2011, 2, 16, 14, 0, 0, 0, time.UTC), Origin: home, Seed: 9,
		Phases: []sensors.Phase{
			{Duration: 2 * time.Minute, Activity: rules.CtxStill},             // at home
			{Duration: 2 * time.Minute, Activity: rules.CtxRun, Heading: 40},  // run (leaves home)
			{Duration: 2 * time.Minute, Activity: rules.CtxWalk, Heading: 40}, // walk
			{Duration: 2 * time.Minute, Activity: rules.CtxStill},             // bench rest
		},
	}
	if _, err := alice.RecordDay(ctx, day, false); err != nil {
		log.Fatal(err)
	}

	coach, err := net.NewConsumer("Coach")
	if err != nil {
		log.Fatal(err)
	}
	rels, err := coach.QueryCtx(ctx, "alice", &query.Query{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("coach receives %d release span(s)\n\n", len(rels))
	var moving, notMoving time.Duration
	rawLeaks, fineLocation := 0, 0
	seen := make(map[string]bool) // chest-band and phone packets repeat the same spans
	for _, rel := range rels {
		if rel.Segment != nil {
			rawLeaks++ // raw channels must never flow at binary activity
		}
		if rel.Location.Point != nil {
			fineLocation++
		}
		for _, c := range rel.Contexts {
			key := fmt.Sprintf("%s/%d/%d", c.Context, c.Start.UnixNano(), c.End.UnixNano())
			if seen[key] {
				continue
			}
			seen[key] = true
			d := c.End.Sub(c.Start)
			switch c.Context {
			case rules.CtxMoving:
				moving += d
			case rules.CtxNotMoving:
				notMoving += d
			}
		}
	}
	fmt.Printf("activity summary the coach can compute:\n")
	fmt.Printf("  moving:     %v\n", moving.Round(time.Second))
	fmt.Printf("  not moving: %v\n", notMoving.Round(time.Second))
	if len(rels) > 0 {
		fmt.Printf("  location granularity: %v (e.g. %q)\n",
			rels[0].Location.Granularity, rels[0].Location.Text)
		fmt.Printf("  time granularity:     %v\n", rels[0].TimeGranularity)
	}
	fmt.Printf("\nprivacy checks: raw-channel leaks=%d, fine-location leaks=%d\n", rawLeaks, fineLocation)
	fmt.Println("(the home phase is absent entirely: the deny rule removed it)")
}
