package broker

import (
	"context"
	"testing"

	"sensorsafe/internal/resilience"
)

func TestSyncRulesVersionMonotonic(t *testing.T) {
	ctx := context.Background()
	b := New()
	if err := b.SyncRules(ctx, "alice", 3, []byte(`[{"Action":"Allow"}]`), nil); err != nil {
		t.Fatal(err)
	}
	// Older push is rejected with the stale sentinel — retries of a
	// superseded replica must not roll the broker backwards.
	err := b.SyncRules(ctx, "alice", 2, []byte(`[{"Action":"Deny"}]`), nil)
	if !resilience.IsStale(err) {
		t.Fatalf("stale push err = %v, want ErrStaleVersion", err)
	}
	// Re-push of the applied version is an idempotent no-op.
	if err := b.SyncRules(ctx, "alice", 3, []byte(`[{"Action":"Deny"}]`), nil); err != nil {
		t.Fatalf("duplicate push should no-op: %v", err)
	}
	reps := b.Replicas()
	if len(reps) != 1 || reps[0].Version != 3 || reps[0].Stale {
		t.Fatalf("replicas = %+v", reps)
	}
	// The duplicate must not have replaced the rules: the original Allow
	// still matches a search.
	bob, err2 := b.RegisterConsumer("bob")
	if err2 != nil {
		t.Fatal(err2)
	}
	got, err2 := b.SearchCtx(ctx, bob.Key, &SearchQuery{Sensors: []string{"ECG"}, Reference: ref})
	if err2 != nil {
		t.Fatal(err2)
	}
	if len(got) != 1 {
		t.Fatalf("Allow rules should have survived the duplicate push: %v", got)
	}
}

func TestSyncDigestReportsStale(t *testing.T) {
	ctx := context.Background()
	b := New()
	if err := b.SyncRules(ctx, "alice", 1, []byte(`[{"Action":"Allow"}]`), nil); err != nil {
		t.Fatal(err)
	}
	// Store claims alice is at version 4 and hosts carol (unknown here).
	stale, err := b.SyncDigest(ctx, "store-1", map[string]uint64{"alice": 4, "carol": 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(stale) != 2 || stale[0] != "alice" || stale[1] != "carol" {
		t.Fatalf("stale = %v, want [alice carol]", stale)
	}
	// Digest healed the directory: carol exists with the reporting store's
	// address.
	reps := b.Replicas()
	if len(reps) != 2 {
		t.Fatalf("replicas = %+v", reps)
	}
	for _, r := range reps {
		if !r.Stale {
			t.Errorf("%s should be stale: %+v", r.Name, r)
		}
	}
	if reps[1].Name != "carol" || reps[1].StoreAddr != "store-1" {
		t.Errorf("carol entry = %+v", reps[1])
	}
	// Pushing the missing versions converges the digest to empty.
	if err := b.SyncRules(ctx, "alice", 4, []byte(`[{"Action":"Allow"}]`), nil); err != nil {
		t.Fatal(err)
	}
	if err := b.SyncRules(ctx, "carol", 2, []byte(`[{"Action":"Deny"}]`), nil); err != nil {
		t.Fatal(err)
	}
	stale, err = b.SyncDigest(ctx, "store-1", map[string]uint64{"alice": 4, "carol": 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(stale) != 0 {
		t.Fatalf("converged digest should be empty, got %v", stale)
	}
	for _, r := range b.Replicas() {
		if r.Stale {
			t.Errorf("%s still stale after convergence: %+v", r.Name, r)
		}
	}
}

func TestReplicaVersionsSurviveRestart(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	b, err := NewPersistent(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SyncRules(ctx, "alice", 2, []byte(`[{"Action":"Allow"}]`), nil); err != nil {
		t.Fatal(err)
	}
	// Digest marks alice stale (store at 5) before the "crash".
	if _, err := b.SyncDigest(ctx, "store-1", map[string]uint64{"alice": 5}); err != nil {
		t.Fatal(err)
	}
	b2, err := NewPersistent(dir)
	if err != nil {
		t.Fatal(err)
	}
	reps := b2.Replicas()
	if len(reps) != 1 || reps[0].Version != 2 || reps[0].StoreVersion != 5 || !reps[0].Stale {
		t.Fatalf("restored replicas = %+v", reps)
	}
	// Version monotonicity survives too: an old push is still rejected.
	if err := b2.SyncRules(ctx, "alice", 1, []byte(`[{"Action":"Deny"}]`), nil); !resilience.IsStale(err) {
		t.Fatalf("stale push after restart = %v", err)
	}
}
