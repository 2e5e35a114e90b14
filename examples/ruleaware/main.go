// Rule-aware collection: the paper's §5.3 optional mechanism, measured.
//
// Alice's rules deny everything while driving and share nothing at home.
// Her phone runs the same scripted day twice — once uploading everything,
// once with privacy-rule-aware collection — and we compare what was
// collected, discarded, and uploaded. Rule-aware collection never uploads
// data that enforcement would have withheld anyway, so consumers see
// exactly the same releases, while the contributor's radio and storage
// costs drop.
//
// Run with: go run ./examples/ruleaware
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"sensorsafe/internal/core"
	"sensorsafe/internal/geo"
	"sensorsafe/internal/phone"
	"sensorsafe/internal/query"
	"sensorsafe/internal/rules"
	"sensorsafe/internal/sensors"
)

func main() {
	ctx := context.Background()
	home := geo.Point{Lat: 34.0250, Lon: -118.4950}
	homeRect, _ := geo.NewRect(
		geo.Point{Lat: home.Lat - 0.0002, Lon: home.Lon - 0.0002},
		geo.Point{Lat: home.Lat + 0.0002, Lon: home.Lon + 0.0002})

	day := &sensors.Scenario{
		Start: time.Date(2011, 2, 16, 8, 0, 0, 0, time.UTC), Origin: home, Seed: 21,
		Phases: []sensors.Phase{
			{Duration: 2 * time.Minute, Activity: rules.CtxStill},                 // home: denied by location
			{Duration: 2 * time.Minute, Activity: rules.CtxDrive, Heading: 80},    // driving: denied by context
			{Duration: 4 * time.Minute, Activity: rules.CtxStill, Stressed: true}, // office: shared
			{Duration: 2 * time.Minute, Activity: rules.CtxDrive, Heading: 260},   // driving: denied by context
		},
	}
	ruleJSON := `[
	  {"Action": "Allow"},
	  {"Context": ["Drive"], "Action": "Deny"},
	  {"LocationLabel": ["home"], "Action": "Deny"}
	]`

	run := func(ruleAware bool) (*phone.Report, int) {
		net := core.NewNetwork()
		defer net.Close()
		if _, err := net.AddStore("s", ""); err != nil {
			log.Fatal(err)
		}
		alice, err := net.NewContributor("s", "alice")
		if err != nil {
			log.Fatal(err)
		}
		if err := alice.DefinePlace("home", geo.Region{Rect: homeRect}); err != nil {
			log.Fatal(err)
		}
		if err := alice.SetRules(ruleJSON); err != nil {
			log.Fatal(err)
		}
		rep, err := alice.RecordDay(ctx, day, ruleAware)
		if err != nil {
			log.Fatal(err)
		}
		// What a consumer actually receives is identical either way.
		bob, err := net.NewConsumer("bob")
		if err != nil {
			log.Fatal(err)
		}
		rels, err := bob.QueryCtx(ctx, "alice", &query.Query{})
		if err != nil {
			log.Fatal(err)
		}
		releasedSamples := 0
		for _, rel := range rels {
			if rel.Segment != nil {
				releasedSamples += rel.Segment.NumSamples()
			}
		}
		return rep, releasedSamples
	}

	naive, naiveReleased := run(false)
	aware, awareReleased := run(true)

	fmt.Println("scenario: 10 min day — 2 min home (denied), 4 min driving (denied), 4 min office (shared)")
	fmt.Println()
	fmt.Printf("%-28s %15s %15s\n", "", "collect-all", "rule-aware")
	fmt.Printf("%-28s %15d %15d\n", "packets collected", naive.PacketsTotal, aware.PacketsTotal-aware.PacketsSkipped)
	fmt.Printf("%-28s %15d %15d\n", "packets skipped (radio off)", naive.PacketsSkipped, aware.PacketsSkipped)
	fmt.Printf("%-28s %15d %15d\n", "packets discarded on phone", naive.PacketsDiscarded, aware.PacketsDiscarded)
	fmt.Printf("%-28s %15d %15d\n", "packets uploaded", naive.PacketsUploaded, aware.PacketsUploaded)
	fmt.Printf("%-28s %15d %15d\n", "bytes uploaded", naive.BytesUploaded, aware.BytesUploaded)
	fmt.Printf("%-28s %15d %15d\n", "records stored", naive.RecordsWritten, aware.RecordsWritten)
	fmt.Printf("%-28s %14.0f%% %14.0f%%\n", "upload fraction",
		naive.UploadFraction()*100, aware.UploadFraction()*100)
	model := phone.DefaultEnergyModel()
	en, ea := model.Estimate(naive), model.Estimate(aware)
	fmt.Printf("%-28s %13.0fmJ %13.0fmJ\n", "energy (sense+cpu+radio)", en.TotalMJ, ea.TotalMJ)
	fmt.Println()
	fmt.Printf("consumer-visible samples:   %d (collect-all) vs %d (rule-aware)\n", naiveReleased, awareReleased)
	if naiveReleased == awareReleased {
		fmt.Println("=> identical releases: rule-aware collection saved upload and storage")
		fmt.Println("   without changing anything a consumer could ever see.")
	} else {
		fmt.Println("=> releases differ (boundary windows); see EXPERIMENTS.md E6 for discussion.")
	}
}
