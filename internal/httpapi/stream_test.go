package httpapi

import (
	"context"
	"testing"
	"time"

	"sensorsafe/internal/stream"
	"sensorsafe/internal/wavesegment"
)

func streamPacket(start time.Time, n int) *wavesegment.Segment {
	s := &wavesegment.Segment{
		Contributor: "alice",
		Start:       start,
		Interval:    100 * time.Millisecond,
		Location:    home,
		Channels:    []string{wavesegment.ChannelECG},
	}
	for i := 0; i < n; i++ {
		s.Values = append(s.Values, []float64{float64(i)})
	}
	return s
}

// TestStreamOverHTTP covers the acceptance path: a consumer subscribed over
// HTTP receives a post-subscription upload within one long-poll round trip
// with the contributor's abstraction applied, and a disconnect +
// resubscribe with the returned cursor replays nothing acknowledged.
func TestStreamOverHTTP(t *testing.T) {
	ctx := context.Background()
	d := deploy(t)
	alice, err := d.storeClient.RegisterCtx(ctx, "alice", "contributor")
	if err != nil {
		t.Fatal(err)
	}
	// City-level location: the delivered release must carry no exact point.
	if err := d.storeClient.SetRulesCtx(ctx, alice.Key, []byte(`[
	  {"Action":"Allow"},
	  {"Action":{"Abstraction":{"Location":"City"}}}
	]`)); err != nil {
		t.Fatal(err)
	}
	bob, err := d.storeClient.RegisterCtx(ctx, "Bob", "consumer")
	if err != nil {
		t.Fatal(err)
	}

	info, err := d.storeClient.SubscribeCtx(ctx, bob.Key, "alice", nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Resumed || info.Cursor != "0" {
		t.Fatalf("fresh subscription = %+v", info)
	}

	// Upload lands after the subscription; one long-poll must return it.
	go func() {
		time.Sleep(50 * time.Millisecond)
		d.storeClient.UploadCtx(ctx, alice.Key, []*wavesegment.Segment{streamPacket(t0, 8)})
	}()
	b, err := d.storeClient.NextCtx(ctx, bob.Key, info.ID, info.Cursor, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Events) != 1 || b.Events[0].Kind != stream.KindData {
		t.Fatalf("long-poll batch = %+v", b)
	}
	for _, rel := range b.Events[0].Releases {
		if rel.Location.Point != nil {
			t.Fatal("exact location leaked through live delivery")
		}
	}

	// Ack the batch, "disconnect", upload again, resubscribe: the consumer
	// gets only the new segment — nothing acked replays, nothing is lost.
	if err := d.storeClient.AckStreamCtx(ctx, bob.Key, info.ID, b.Cursor); err != nil {
		t.Fatal(err)
	}
	if _, err := d.storeClient.UploadCtx(ctx, alice.Key, []*wavesegment.Segment{streamPacket(t0.Add(time.Hour), 8)}); err != nil {
		t.Fatal(err)
	}
	again, err := d.storeClient.SubscribeCtx(ctx, bob.Key, "alice", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Resumed || again.ID != info.ID || again.Cursor != b.Cursor {
		t.Fatalf("resubscribe = %+v (want resumed at %s)", again, b.Cursor)
	}
	b2, err := d.storeClient.NextCtx(ctx, bob.Key, again.ID, again.Cursor, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(b2.Events) != 1 || b2.Events[0].Seq != 2 {
		t.Fatalf("post-resubscribe batch = %+v", b2.Events)
	}

	// Error mapping: foreign and unknown subscriptions.
	eve, _ := d.storeClient.RegisterCtx(ctx, "Eve", "consumer")
	if _, err := d.storeClient.NextCtx(ctx, eve.Key, info.ID, "", 0); err == nil {
		t.Error("foreign poll must fail")
	}
	if _, err := d.storeClient.NextCtx(ctx, bob.Key, "nope", "", 0); err == nil {
		t.Error("unknown subscription must 404")
	}
}
