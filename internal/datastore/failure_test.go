package datastore

import (
	"context"
	"errors"
	"sort"
	"testing"

	"sensorsafe/internal/geo"
	"sensorsafe/internal/query"
)

// failingSync simulates a broker that is down or rejecting replicas; flip
// down to false to heal it. Like the broker, it keeps the version of each
// replica it applied, and its digest names the contributors whose store
// version is ahead of that.
type failingSync struct {
	down    bool
	calls   int
	applied map[string]uint64
}

func (f *failingSync) SyncRulesCtx(_ context.Context, contributor string, version uint64, _ []byte, _ []geo.Region) error {
	f.calls++
	if f.down {
		return errors.New("broker unreachable")
	}
	if f.applied == nil {
		f.applied = make(map[string]uint64)
	}
	f.applied[normName(contributor)] = version
	return nil
}

func (f *failingSync) SyncDigestCtx(_ context.Context, _ string, versions map[string]uint64) ([]string, error) {
	if f.down {
		return nil, errors.New("broker unreachable")
	}
	var stale []string
	for name, v := range versions {
		if v > f.applied[normName(name)] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	return stale, nil
}

func TestSyncFailureDoesNotCorruptStore(t *testing.T) {
	ctx := context.Background()
	sync := &failingSync{down: true}
	s := newService(t, Options{Sync: sync})
	alice, bob := setupAliceBob(t, s)

	// SetRules succeeds locally even though the broker is down: the change
	// is committed and the replica left behind instead of surfacing the
	// push failure to the contributor.
	if err := s.SetRules(alice.Key, []byte(`[{"Consumer":["Bob"],"Action":"Allow"}]`)); err != nil {
		t.Fatalf("broker outage must not fail a local rule change: %v", err)
	}
	if sync.calls == 0 {
		t.Fatal("sync was never attempted")
	}
	if v := sync.applied["alice"]; v != 0 {
		t.Fatalf("failed push reached the target: replica version = %d", v)
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
	// Recovery: when the broker returns, one anti-entropy round's digest
	// finds the replica behind and pushes it.
	sync.down = false
	if err := s.AntiEntropy(); err != nil {
		t.Fatalf("anti-entropy after recovery: %v", err)
	}
	if v := sync.applied["alice"]; v != 1 {
		t.Fatalf("replica version after recovery = %d, want 1", v)
	}
}

// TestCrashAfterCommitBeforePush: a rule change is durable when SetRules
// returns, before its push succeeds. A store killed with the push failed
// and reopened against a working target converges the replica in one
// anti-entropy round.
func TestCrashAfterCommitBeforePush(t *testing.T) {
	dir := t.TempDir()
	down := &failingSync{down: true}
	s, err := New(Options{Dir: dir, Sync: down})
	if err != nil {
		t.Fatal(err)
	}
	alice, _ := setupAliceBob(t, s)
	if err := s.SetRules(alice.Key, []byte(`[{"Consumer":["Bob"],"Action":"Allow"}]`)); err != nil {
		t.Fatal(err)
	}
	if down.calls == 0 {
		t.Fatal("sync was never attempted")
	}
	kill(s)

	up := &failingSync{}
	s, err = New(Options{Dir: dir, Sync: up})
	if err != nil {
		t.Fatal(err)
	}
	defer kill(s)
	if err := s.AntiEntropy(); err != nil {
		t.Fatal(err)
	}
	if v := up.applied["alice"]; v != 1 {
		t.Fatalf("replica version after reopen and anti-entropy = %d, want 1", v)
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
