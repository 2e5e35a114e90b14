package phone

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sensorsafe/internal/auth"
	"sensorsafe/internal/rules"
	"sensorsafe/internal/sensors"
	"sensorsafe/internal/wavesegment"
)

// outageStore fails uploads while down, delegating to the real store
// otherwise.
type outageStore struct {
	Store
	down    bool
	uploads int
}

func (s *outageStore) UploadCtx(ctx context.Context, key auth.APIKey, segs []*wavesegment.Segment) (int, error) {
	if s.down {
		return 0, os.ErrDeadlineExceeded
	}
	s.uploads++
	return s.Store.UploadCtx(ctx, key, segs)
}

func TestOutboxSpillsAndDrains(t *testing.T) {
	ctx := context.Background()
	svc, p := setup(t)
	flaky := &outageStore{Store: svc, down: true}
	p.Store = flaky
	p.Outbox = &Outbox{Dir: filepath.Join(t.TempDir(), "outbox")}
	p.BatchPackets = 2

	sc := scenario(sensors.Phase{Duration: 2 * time.Minute, Activity: rules.CtxStill})
	rep, err := p.RunCtx(ctx, sc)
	if err != nil {
		t.Fatalf("outage must not abort the session: %v", err)
	}
	if rep.BatchesSpilled == 0 || rep.SamplesSpilled == 0 {
		t.Fatalf("nothing spilled: %+v", rep)
	}
	if svc.SegmentCount() != 0 {
		t.Fatal("store should have received nothing during the outage")
	}
	if got := p.Outbox.Pending(); got != rep.BatchesSpilled {
		t.Fatalf("pending = %d, want %d", got, rep.BatchesSpilled)
	}

	// Connectivity returns: an explicit drain delivers every sample.
	flaky.down = false
	batches, records, err := p.DrainOutbox(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if batches != rep.BatchesSpilled || records == 0 {
		t.Fatalf("drained %d batches (%d records), want %d", batches, records, rep.BatchesSpilled)
	}
	if p.Outbox.Pending() != 0 {
		t.Fatalf("outbox should be empty, %d pending", p.Outbox.Pending())
	}
	if svc.SegmentCount() == 0 {
		t.Fatal("drained data never reached the store")
	}
}

func TestOutboxDrainsAtSessionStart(t *testing.T) {
	ctx := context.Background()
	svc, p := setup(t)
	flaky := &outageStore{Store: svc, down: true}
	p.Store = flaky
	dir := filepath.Join(t.TempDir(), "outbox")
	p.Outbox = &Outbox{Dir: dir}

	sc := scenario(sensors.Phase{Duration: time.Minute, Activity: rules.CtxStill})
	if _, err := p.RunCtx(ctx, sc); err != nil {
		t.Fatal(err)
	}
	spilled := p.Outbox.Pending()
	if spilled == 0 {
		t.Fatal("expected spilled batches")
	}

	// "Restart": a fresh Phone with a fresh Outbox over the same directory
	// recovers the earlier spill before uploading the new session.
	flaky.down = false
	p2 := &Phone{Contributor: p.Contributor, Key: p.Key, Store: flaky,
		Outbox: &Outbox{Dir: dir}}
	rep, err := p2.RunCtx(ctx, scenario(sensors.Phase{Duration: time.Minute, Activity: rules.CtxWalk}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.BatchesRecovered != spilled {
		t.Fatalf("recovered %d, want %d", rep.BatchesRecovered, spilled)
	}
	if p2.Outbox.Pending() != 0 {
		t.Fatalf("outbox should be empty, %d pending", p2.Outbox.Pending())
	}
	if svc.SegmentCount() == 0 {
		t.Fatal("store never saw the data")
	}
}

func TestOutboxSequenceSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	o := &Outbox{Dir: dir}
	seg := &wavesegment.Segment{
		Contributor: "alice",
		Start:       t0,
		Interval:    100 * time.Millisecond,
		Channels:    []string{wavesegment.ChannelECG},
		Values:      [][]float64{{1}, {2}, {3}},
	}
	if err := o.Spill([]*wavesegment.Segment{seg}); err != nil {
		t.Fatal(err)
	}
	if err := o.Spill([]*wavesegment.Segment{seg}); err != nil {
		t.Fatal(err)
	}
	// A fresh Outbox must continue the numbering, not overwrite batch 1.
	o2 := &Outbox{Dir: dir}
	if err := o2.Spill([]*wavesegment.Segment{seg}); err != nil {
		t.Fatal(err)
	}
	if got := o2.Pending(); got != 3 {
		t.Fatalf("pending = %d, want 3", got)
	}
}
