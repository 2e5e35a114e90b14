// Audit trail: "who has been reading my data, and what did they see?"
//
// SensorSafe extends the Personal Data Vault (paper §2), whose trace audit
// lets a data owner inspect accesses after the fact. Here Alice shares a
// recorded afternoon under Fig. 4-style rules; her study coordinator, her
// health coach, and a stranger all query her store; then Alice reviews her
// audit trail: every access is recorded with its outcome — released raw,
// released abstracted, or withheld — and aggregated per consumer.
//
// Run with: go run ./examples/audittrail
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"sensorsafe/internal/audit"
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
	if err := alice.SetRules(`[
	  {"Consumer": ["Bob"], "Action": "Allow"},
	  {"Consumer": ["Bob"], "Context": ["Drive"],
	   "Action": {"Abstraction": {"Stress": "NotShared"}}},
	  {"Consumer": ["Coach"], "Sensor": ["Accelerometer"], "Action": "Allow"}
	]`); err != nil {
		log.Fatal(err)
	}

	day := &sensors.Scenario{
		Start:  time.Date(2011, 2, 16, 14, 0, 0, 0, time.UTC),
		Origin: geo.Point{Lat: 34.025, Lon: -118.495}, Seed: 13,
		Phases: []sensors.Phase{
			{Duration: 2 * time.Minute, Activity: rules.CtxStill, Stressed: true},
			{Duration: 2 * time.Minute, Activity: rules.CtxDrive, Stressed: true, Heading: 70},
		},
	}
	if _, err := alice.RecordDay(ctx, day, false); err != nil {
		log.Fatal(err)
	}

	// Three consumers with very different access levels query her store.
	for _, name := range []string{"Bob", "Coach", "Eve"} {
		consumer, err := net.NewConsumer(name)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := consumer.QueryCtx(ctx, "alice", &query.Query{}); err != nil {
			log.Fatal(err)
		}
	}

	// Alice reviews the aggregate view first.
	sums, err := alice.AuditSummary()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("alice's per-consumer audit summary:")
	fmt.Printf("  %-8s %9s %5s %11s %9s %10s\n", "consumer", "accesses", "raw", "abstracted", "withheld", "data span")
	for _, s := range sums {
		fmt.Printf("  %-8s %9d %5d %11d %9d %10s\n",
			s.Consumer, s.Accesses, s.Raw, s.Abstracted, s.Withheld, s.DataSpan.Round(time.Second))
	}

	// Then drills into what exactly was withheld from Eve...
	withheld := audit.OutcomeWithheld
	eveEvents, err := alice.Audit(audit.Filter{Consumer: "Eve", Outcome: &withheld})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nEve's accesses: %d, all withheld (no rule mentions her)\n", len(eveEvents))

	// ...and which spans Bob saw only in abstracted form (the drive, where
	// stress and its source channels were held back).
	abstracted := audit.OutcomeAbstracted
	bobAbs, err := alice.Audit(audit.Filter{Consumer: "Bob", Outcome: &abstracted})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nBob's abstracted spans (%d):\n", len(bobAbs))
	for i, e := range bobAbs {
		if i >= 4 {
			fmt.Printf("  ... and %d more\n", len(bobAbs)-i)
			break
		}
		fmt.Printf("  %s..%s channels=%v contexts=%v\n",
			e.SpanStart.Format("15:04:05"), e.SpanEnd.Format("15:04:05"), e.Channels, e.Contexts)
	}
	fmt.Println("\nEvery span above was released without ECG/Respiration and without")
	fmt.Println("stress labels — matching Alice's \"no stress while driving\" rule.")
}
