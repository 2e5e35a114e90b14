package datastore

import (
	"context"
	"errors"
	"testing"

	"sensorsafe/internal/geo"
	"sensorsafe/internal/query"
)

// failingSync simulates a broker that is down or rejecting replicas; flip
// down to false to heal it.
type failingSync struct {
	down  bool
	calls int
}

func (f *failingSync) SyncRulesCtx(context.Context, string, uint64, []byte, []geo.Region) error {
	f.calls++
	if f.down {
		return errors.New("broker unreachable")
	}
	return nil
}

func (f *failingSync) SyncDigestCtx(context.Context, string, map[string]uint64) ([]string, error) {
	if f.down {
		return nil, errors.New("broker unreachable")
	}
	return nil, nil
}

func TestSyncFailureDoesNotCorruptStore(t *testing.T) {
	ctx := context.Background()
	sync := &failingSync{down: true}
	s := newService(t, Options{Sync: sync})
	alice, bob := setupAliceBob(t, s)

	// SetRules succeeds locally even though the broker is down: the change
	// is committed and queued in the durable outbox instead of surfacing
	// the push failure to the contributor.
	if err := s.SetRules(alice.Key, []byte(`[{"Consumer":["Bob"],"Action":"Allow"}]`)); err != nil {
		t.Fatalf("broker outage must not fail a local rule change: %v", err)
	}
	if sync.calls == 0 {
		t.Fatal("sync was never attempted")
	}
	if s.SyncBacklog() != 1 {
		t.Fatalf("failed push should stay in the outbox: backlog = %d", s.SyncBacklog())
	}
	// The rules were installed locally and enforcement works: the store is
	// authoritative, the broker replica is best-effort.
	if _, err := s.UploadCtx(ctx, alice.Key, packetStream("alice", t0, 1)); err != nil {
		t.Fatal(err)
	}
	rels, err := s.QueryCtx(ctx, bob.Key, &query.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) != 1 {
		t.Fatalf("local enforcement should work despite sync failure: %d releases", len(rels))
	}
	// ResyncAll against a still-failing broker surfaces the error.
	if err := s.ResyncAll(); err == nil {
		t.Error("resync against a failing broker should error")
	}
	if err := s.AntiEntropy(); err == nil {
		t.Error("anti-entropy against a failing broker should error")
	}
	// Recovery: when the broker returns, one anti-entropy round drains the
	// outbox.
	sync.down = false
	if err := s.AntiEntropy(); err != nil {
		t.Fatalf("anti-entropy after recovery: %v", err)
	}
	if s.SyncBacklog() != 0 {
		t.Fatalf("outbox should drain after recovery: backlog = %d", s.SyncBacklog())
	}
}

// failingDirectory simulates a broker rejecting contributor registration.
type failingDirectory struct{}

func (failingDirectory) RegisterContributorCtx(context.Context, string, string) error {
	return errors.New("broker unreachable")
}

func TestDirectoryFailureStillCreatesAccount(t *testing.T) {
	ctx := context.Background()
	s := newService(t, Options{Directory: failingDirectory{}})
	u, err := s.RegisterContributor("alice")
	if err == nil {
		t.Fatal("directory failure should surface")
	}
	// The local account exists (with its key) so the contributor is not
	// locked out; re-announcement can happen later.
	if u.Key == "" {
		t.Fatal("local account should still be issued")
	}
	if _, err := s.UploadCtx(ctx, u.Key, packetStream("alice", t0, 1)); err != nil {
		t.Fatalf("local account should work: %v", err)
	}
}

func TestQueryWindowClipping(t *testing.T) {
	ctx := context.Background()
	// Regression for the episodic-window bug: releases must never contain
	// samples outside the query window, even when a stored record spans it.
	s := newService(t, Options{MaxSegmentSamples: 1 << 20})
	alice, bob := setupAliceBob(t, s)
	if err := s.SetRules(alice.Key, []byte(`[{"Action":"Allow"}]`)); err != nil {
		t.Fatal(err)
	}
	// One 10-minute record.
	if _, err := s.UploadCtx(ctx, alice.Key, packetStream("alice", t0, 94)); err != nil {
		t.Fatal(err)
	}
	from, to := t0.Add(60*1e9), t0.Add(120*1e9) // [t0+1m, t0+2m)
	rels, err := s.QueryCtx(ctx, bob.Key, &query.Query{From: from, To: to})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, rel := range rels {
		if rel.Segment == nil {
			continue
		}
		total += rel.Segment.NumSamples()
		if rel.Segment.StartTime().Before(from) || rel.Segment.EndTime().After(to) {
			t.Errorf("release %v..%v escapes window %v..%v",
				rel.Segment.StartTime(), rel.Segment.EndTime(), from, to)
		}
	}
	if total != 600 { // one minute at 10 Hz
		t.Errorf("released %d samples, want 600", total)
	}
}
