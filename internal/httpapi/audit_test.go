package httpapi

import (
	"context"
	"strings"
	"testing"
	"time"

	"sensorsafe/internal/query"
	"sensorsafe/internal/wavesegment"
)

func TestAuditOverHTTP(t *testing.T) {
	ctx := context.Background()
	d := deploy(t)
	alice, err := d.storeClient.RegisterCtx(ctx, "alice", "contributor")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.storeClient.SetRulesCtx(ctx, alice.Key, []byte(`[{"Consumer":["Bob"],"Action":"Allow"}]`)); err != nil {
		t.Fatal(err)
	}
	seg := &wavesegment.Segment{
		Contributor: "alice", Start: t0, Interval: 100 * time.Millisecond,
		Location: home, Channels: []string{wavesegment.ChannelECG},
		Values: [][]float64{{1}, {2}, {3}},
	}
	if _, err := d.storeClient.UploadCtx(ctx, alice.Key, []*wavesegment.Segment{seg}); err != nil {
		t.Fatal(err)
	}
	bob, _ := d.storeClient.RegisterCtx(ctx, "Bob", "consumer")
	eve, _ := d.storeClient.RegisterCtx(ctx, "Eve", "consumer")
	if _, err := d.storeClient.QueryCtx(ctx, bob.Key, &query.Query{}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.storeClient.QueryCtx(ctx, eve.Key, &query.Query{}); err != nil {
		t.Fatal(err)
	}

	events, err := d.storeClient.AuditCtx(ctx, alice.Key, "", time.Time{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("events = %d, want 2", len(events))
	}
	// Newest first: Eve's withheld access, then Bob's raw one.
	if events[0].Consumer != "Eve" || events[0].Outcome.String() != "withheld" {
		t.Errorf("event 0 = %+v", events[0])
	}
	if events[1].Consumer != "Bob" || events[1].Outcome.String() != "raw" {
		t.Errorf("event 1 = %+v", events[1])
	}

	// Filter by consumer over the wire.
	events, err = d.storeClient.AuditCtx(ctx, alice.Key, "bob", time.Time{}, 0)
	if err != nil || len(events) != 1 {
		t.Fatalf("filtered events = %v, %v", events, err)
	}

	sums, err := d.storeClient.AuditSummaryCtx(ctx, alice.Key)
	if err != nil || len(sums) != 2 {
		t.Fatalf("summary = %v, %v", sums, err)
	}

	// Consumers are rejected.
	if _, err := d.storeClient.AuditCtx(ctx, bob.Key, "", time.Time{}, 0); err == nil || !strings.Contains(err.Error(), "403") {
		t.Errorf("consumer audit access: %v", err)
	}
}
