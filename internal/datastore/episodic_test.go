package datastore

import (
	"context"
	"testing"
	"time"

	"sensorsafe/internal/query"
	"sensorsafe/internal/rules"
	"sensorsafe/internal/wavesegment"
)

// The paper motivates per-sample timestamps in wave segments with
// adaptive, compressive, and episodic sampling (§5.1). This test drives an
// episodic (irregularly-timestamped) segment through the full pipeline:
// upload, storage round trip, enforced query with a time window, and an
// annotation-driven abstraction — shapes the uniform-interval tests never
// exercise.
func TestEpisodicSamplingPipeline(t *testing.T) {
	ctx := context.Background()
	s := newService(t, Options{})
	alice, bob := setupAliceBob(t, s)

	// Episodic GPS fixes: bursts when moving, long gaps when still.
	gaps := []time.Duration{
		0, time.Second, time.Second, 2 * time.Second, // burst
		5 * time.Minute,          // long gap
		time.Second, time.Second, // burst
		10 * time.Minute, // longer gap
		time.Second,
	}
	seg := &wavesegment.Segment{
		Contributor: "alice",
		Location:    ucla,
		Channels:    []string{wavesegment.ChannelLatitude, wavesegment.ChannelLongitude},
	}
	at := t0
	for i, g := range gaps {
		at = at.Add(g)
		seg.Timestamps = append(seg.Timestamps, at)
		seg.Values = append(seg.Values, []float64{34.0 + float64(i)*0.001, -118.4})
	}
	seg.Start = seg.Timestamps[0]
	_ = seg.Annotate(rules.CtxDrive, t0, t0.Add(4*time.Second))

	if _, err := s.UploadCtx(ctx, alice.Key, []*wavesegment.Segment{seg}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetRules(alice.Key, []byte(`[{"Consumer":["Bob"],"Action":"Allow"}]`)); err != nil {
		t.Fatal(err)
	}

	// Storage round trip preserves irregular timestamps.
	own, err := s.QueryOwn(alice.Key, &query.Query{})
	if err != nil || len(own) != 1 {
		t.Fatalf("own = %v, %v", own, err)
	}
	if own[0].Interval != 0 || len(own[0].Timestamps) != len(gaps) {
		t.Fatalf("timestamped shape lost: interval=%v timestamps=%d", own[0].Interval, len(own[0].Timestamps))
	}

	// Enforced query with a window covering only the first burst.
	rels, err := s.QueryCtx(ctx, bob.Key, &query.Query{From: t0, To: t0.Add(10 * time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	samples := 0
	for _, rel := range rels {
		if rel.Segment == nil {
			continue
		}
		samples += rel.Segment.NumSamples()
		for _, ts := range rel.Segment.Timestamps {
			if ts.Before(t0) || !ts.Before(t0.Add(10*time.Second)) {
				t.Errorf("released sample at %v outside requested window", ts)
			}
		}
	}
	if samples != 4 {
		t.Errorf("released %d samples from the first burst, want 4", samples)
	}

	// Hiding activity blocks the GPS-derived channels... but here location
	// granularity gates them: clamp location to City and the raw fixes
	// disappear while the Drive label still flows.
	if err := s.SetRules(alice.Key, []byte(`[
	  {"Consumer":["Bob"],"Action":"Allow"},
	  {"Consumer":["Bob"],"Action":{"Abstraction":{"Location":"City"}}}
	]`)); err != nil {
		t.Fatal(err)
	}
	rels, err = s.QueryCtx(ctx, bob.Key, &query.Query{})
	if err != nil {
		t.Fatal(err)
	}
	sawDrive := false
	for _, rel := range rels {
		if rel.Segment != nil &&
			(rel.Segment.HasChannel(wavesegment.ChannelLatitude) || rel.Segment.HasChannel(wavesegment.ChannelLongitude)) {
			t.Error("raw GPS fixes leaked below Coordinates granularity")
		}
		if rel.Location.Point != nil {
			t.Error("exact location leaked")
		}
		for _, c := range rel.Contexts {
			if c.Context == rules.CtxDrive {
				sawDrive = true
			}
		}
	}
	if !sawDrive {
		t.Error("drive label should still flow at city-level location")
	}
}
