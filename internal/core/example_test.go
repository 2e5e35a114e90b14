package core_test

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

// Example walks the paper's Fig. 4 scenario end to end: Alice shares
// everything at UCLA with Bob, except stress while in conversation.
func Example() {
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

	campus, _ := geo.NewRect(geo.Point{Lat: 34.05, Lon: -118.46}, geo.Point{Lat: 34.08, Lon: -118.43})
	if err := alice.DefinePlace("UCLA", geo.Region{Rect: campus}); err != nil {
		log.Fatal(err)
	}
	if err := alice.SetRules(`[
	  {"Consumer": ["Bob"], "LocationLabel": ["UCLA"], "Action": "Allow"},
	  {"Consumer": ["Bob"], "LocationLabel": ["UCLA"], "Context": ["Conversation"],
	   "Action": {"Abstraction": {"Stress": "NotShared"}}}
	]`); err != nil {
		log.Fatal(err)
	}

	// One minute of chest-band data at UCLA with a conversation in the
	// middle third.
	start := time.Date(2011, 2, 16, 10, 0, 0, 0, time.UTC)
	seg := &wavesegment.Segment{
		Contributor: "alice", Start: start, Interval: 100 * time.Millisecond,
		Location: geo.Point{Lat: 34.0689, Lon: -118.4452},
		Channels: []string{wavesegment.ChannelECG, wavesegment.ChannelRespiration},
	}
	for i := 0; i < 600; i++ {
		seg.Values = append(seg.Values, []float64{1, 2})
	}
	_ = seg.Annotate(rules.CtxConversation, start.Add(20*time.Second), start.Add(40*time.Second))
	if _, err := alice.Store.UploadCtx(ctx, alice.Key, []*wavesegment.Segment{seg}); err != nil {
		log.Fatal(err)
	}

	bob, err := net.NewConsumer("Bob")
	if err != nil {
		log.Fatal(err)
	}
	rels, err := bob.QueryCtx(ctx, "alice", &query.Query{})
	if err != nil {
		log.Fatal(err)
	}
	for _, rel := range rels {
		chans := "no raw channels (stress withheld)"
		if rel.Segment != nil {
			chans = fmt.Sprintf("channels=%v", rel.Segment.Channels)
		}
		fmt.Printf("%s..%s %s\n", rel.Start.Format("15:04:05"), rel.End.Format("15:04:05"), chans)
	}
	// Output:
	// 10:00:00..10:00:20 channels=[ECG Respiration]
	// 10:00:20..10:00:40 no raw channels (stress withheld)
	// 10:00:40..10:01:00 channels=[ECG Respiration]
}
