// Quickstart: the smallest end-to-end SensorSafe flow, fully in-process.
//
// Alice uploads one minute of chest-band data to her remote data store,
// installs the paper's Fig. 4 privacy rules, and Bob queries — once during
// business-hour conversation (stress withheld, ECG/respiration blocked by
// the sensor/context dependency closure) and once outside it.
//
// Run with: go run ./examples/quickstart
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
	"sensorsafe/internal/wavesegment"
)

func main() {
	ctx := context.Background()
	// One broker, one remote data store, wired in-process.
	net := core.NewNetwork()
	defer net.Close()
	if _, err := net.AddStore("alice-store", ""); err != nil {
		log.Fatal(err)
	}

	alice, err := net.NewContributor("alice-store", "alice")
	if err != nil {
		log.Fatal(err)
	}

	// Alice defines the "UCLA" label the rules below reference.
	campus, _ := geo.NewRect(geo.Point{Lat: 34.05, Lon: -118.46}, geo.Point{Lat: 34.08, Lon: -118.43})
	if err := alice.DefinePlace("UCLA", geo.Region{Rect: campus}); err != nil {
		log.Fatal(err)
	}

	// The paper's Fig. 4 rule set, verbatim semantics: share everything
	// collected at UCLA with Bob, but not stress while in conversation on
	// weekdays 9am-6pm.
	err = alice.SetRules(`[
	  { "Consumer": ["Bob"],
	    "LocationLabel": ["UCLA"],
	    "Action": "Allow" },
	  { "Consumer": ["Bob"],
	    "LocationLabel": ["UCLA"],
	    "RepeatTime": { "Day": ["Mon","Tue","Wed","Thu","Fri"],
	                    "HourMin": ["9:00am","6:00pm"] },
	    "Context": ["Conversation"],
	    "Action": { "Abstraction": { "Stress": "NotShared" } } }
	]`)
	if err != nil {
		log.Fatal(err)
	}

	// One minute of 10 Hz chest-band + microphone data at UCLA on a
	// Wednesday morning, with a conversation in the middle.
	start := time.Date(2011, 2, 16, 10, 0, 0, 0, time.UTC)
	seg := &wavesegment.Segment{
		Contributor: "alice",
		Start:       start,
		Interval:    100 * time.Millisecond,
		Location:    geo.Point{Lat: 34.0689, Lon: -118.4452},
		Channels: []string{
			wavesegment.ChannelECG, wavesegment.ChannelRespiration,
			wavesegment.ChannelMicrophone,
		},
	}
	for i := 0; i < 600; i++ {
		seg.Values = append(seg.Values, []float64{float64(i), float64(i) / 2, 0.02})
	}
	_ = seg.Annotate(rules.CtxConversation, start.Add(20*time.Second), start.Add(40*time.Second))
	_ = seg.Annotate(rules.CtxStressed, start.Add(10*time.Second), start.Add(50*time.Second))

	if _, err := alice.Store.UploadCtx(ctx, alice.Key, []*wavesegment.Segment{seg}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("alice uploaded %d samples; store holds %d wave segment(s) after optimization\n",
		seg.NumSamples(), alice.Store.SegmentCount())

	// Bob discovers Alice through the broker and queries her store.
	bob, err := net.NewConsumer("Bob")
	if err != nil {
		log.Fatal(err)
	}
	rels, err := bob.QueryCtx(ctx, "alice", &query.Query{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nBob receives %d release span(s):\n", len(rels))
	for _, rel := range rels {
		var ctxs []string
		for _, c := range rel.Contexts {
			ctxs = append(ctxs, c.Context)
		}
		fmt.Printf("  %s..%s channels=%v contexts=%v\n",
			rel.Start.Format("15:04:05"), rel.End.Format("15:04:05"),
			rel.Segment.Channels, ctxs)
	}
	fmt.Println("\nDuring the conversation span, stress labels and the ECG/respiration")
	fmt.Println("channels they could be re-inferred from are withheld; before and after,")
	fmt.Println("Bob sees everything — exactly the paper's Fig. 4 behaviour.")

	// Eve gets nothing.
	eve, err := net.NewConsumer("Eve")
	if err != nil {
		log.Fatal(err)
	}
	eveRels, err := eve.QueryCtx(ctx, "alice", &query.Query{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nEve (no rule mentions her) receives %d releases.\n", len(eveRels))
}
