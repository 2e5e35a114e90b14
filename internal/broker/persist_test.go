package broker

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"sensorsafe/internal/auth"
	"sensorsafe/internal/rules"
)

func TestBrokerStateSurvivesRestart(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	b, err := NewPersistent(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.RegisterContributor(ctx, "alice", "store-alice"); err != nil {
		t.Fatal(err)
	}
	if err := b.SyncRules(ctx, "alice", 1, []byte(`[{"Action":"Allow"}]`), workPlaces(t)); err != nil {
		t.Fatal(err)
	}
	bob, err := b.RegisterConsumer("Bob")
	if err != nil {
		t.Fatal(err)
	}
	b.RegisterStore(&fakeStore{addr: "store-alice"})
	cred, err := b.Connect(ctx, bob.Key, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SaveList(bob.Key, "cohort", []string{"alice"}); err != nil {
		t.Fatal(err)
	}
	if err := b.CreateStudy("Study"); err != nil {
		t.Fatal(err)
	}
	if err := b.JoinStudy(bob.Key, "Study"); err != nil {
		t.Fatal(err)
	}

	// Restart.
	b2, err := NewPersistent(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Bob's broker key still works; the directory, his vaulted store key,
	// list, and study membership all survived.
	dirEntries, err := b2.Directory(bob.Key)
	if err != nil {
		t.Fatalf("Bob's key should survive: %v", err)
	}
	if len(dirEntries) != 1 || dirEntries[0].Name != "alice" ||
		dirEntries[0].StoreAddr != "store-alice" || dirEntries[0].RuleCount != 1 {
		t.Errorf("directory = %+v", dirEntries)
	}
	creds, err := b2.Credentials(bob.Key)
	if err != nil || len(creds) != 1 || creds[0].Key != cred.Key {
		t.Errorf("credentials = %v, %v", creds, err)
	}
	list, err := b2.List(bob.Key, "cohort")
	if err != nil || len(list) != 1 || list[0] != "alice" {
		t.Errorf("list = %v, %v", list, err)
	}
	members, err := b2.StudyMembers("Study")
	if err != nil || len(members) != 1 || members[0] != "bob" {
		t.Errorf("study = %v, %v", members, err)
	}
	// The rule replica recompiled: searches work immediately.
	got, err := b2.SearchCtx(ctx, bob.Key, &SearchQuery{Sensors: []string{"ECG"}, Reference: ref})
	if err != nil || len(got) != 1 || got[0] != "alice" {
		t.Errorf("search after restart = %v, %v", got, err)
	}
	// Study membership feeds searches after restart too.
	// New registrations still work.
	if _, err := b2.RegisterConsumer("Carol"); err != nil {
		t.Fatal(err)
	}
}

func TestBrokerGroupMembershipSurvives(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	b, _ := NewPersistent(dir)
	if err := b.SyncRules(ctx, "alice", 1, []byte(`[{"Group":["Study"],"Action":"Allow"}]`), nil); err != nil {
		t.Fatal(err)
	}
	bob, _ := b.RegisterConsumer("bob")
	_ = b.CreateStudy("Study")
	if err := b.JoinStudy(bob.Key, "Study"); err != nil {
		t.Fatal(err)
	}

	b2, err := NewPersistent(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := b2.SearchCtx(ctx, bob.Key, &SearchQuery{Sensors: []string{"ECG"}, Reference: ref})
	if err != nil || len(got) != 1 {
		t.Errorf("group search after restart = %v, %v", got, err)
	}
}

func TestNewPersistentEmptyDirIsMemory(t *testing.T) {
	b, err := NewPersistent("")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.RegisterConsumer("bob"); err != nil {
		t.Fatal(err)
	}
}

func TestBrokerCorruptState(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, stateFileName), []byte("{oops"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := NewPersistent(dir); err == nil {
		t.Error("corrupt broker state should abort startup")
	}
}

func TestBrokerTornTempFileDoesNotCorruptState(t *testing.T) {
	ctx := context.Background()
	// A crash mid-save leaves a torn temp file but never a torn state
	// file (write-temp → fsync → rename). Reopen must succeed on the
	// intact state and the next save must replace the debris.
	dir := t.TempDir()
	b, err := NewPersistent(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SyncRules(ctx, "alice", 1, []byte(`[{"Action":"Allow"}]`), nil); err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, stateFileName+".tmp")
	if err := os.WriteFile(torn, []byte(`{"contributors":[{"na`), 0o600); err != nil {
		t.Fatal(err)
	}

	b2, err := NewPersistent(dir)
	if err != nil {
		t.Fatalf("torn temp file must not block reopen: %v", err)
	}
	reps := b2.Replicas()
	if len(reps) != 1 || reps[0].Version != 1 {
		t.Fatalf("state lost after torn-temp crash: %+v", reps)
	}
	if _, err := b2.RegisterConsumer("bob"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Errorf("temp file should be gone after a successful save: %v", err)
	}
}

func TestBrokerStateFilePermissions(t *testing.T) {
	dir := t.TempDir()
	b, _ := NewPersistent(dir)
	u, err := b.RegisterConsumer("bob")
	if err != nil {
		t.Fatal(err)
	}
	if u.Key == "" {
		t.Fatal("no key issued")
	}
	info, err := os.Stat(filepath.Join(dir, stateFileName))
	if err != nil {
		t.Fatal(err)
	}
	if perm := info.Mode().Perm(); perm != 0o600 {
		t.Errorf("state file mode = %o, want 600 (contains API keys)", perm)
	}
}

// TestBrokerConcurrentSavesNeitherFailNorRegress races the broker's state
// writers: stores pushing rule replicas beside consumers registering.
// Unserialised saves collide on WriteFileAtomic's temp name (a call fails
// although its mutation took effect) and can commit an older snapshot last.
func TestBrokerConcurrentSavesNeitherFailNorRegress(t *testing.T) {
	ctx := context.Background()
	const workers, rounds = 4, 12
	dir := t.TempDir()
	b, err := NewPersistent(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("contributor%d", i)
			if err := b.RegisterContributor(ctx, name, "store-"+name); err != nil {
				t.Errorf("RegisterContributor: %v", err)
			}
			for v := uint64(1); v <= rounds; v++ {
				if err := b.SyncRules(ctx, name, v, []byte(`[{"Action":"Allow"}]`), nil); err != nil {
					t.Errorf("SyncRules: %v", err)
				}
			}
		}(i)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if _, err := b.RegisterConsumer(fmt.Sprintf("consumer%d-%d", i, r)); err != nil {
					t.Errorf("RegisterConsumer: %v", err)
				}
			}
		}(i)
	}
	wg.Wait()

	b2, err := NewPersistent(dir)
	if err != nil {
		t.Fatal(err)
	}
	replicas := b2.Replicas()
	if len(replicas) != workers {
		t.Fatalf("reopened replicas = %+v, want %d", replicas, workers)
	}
	for _, r := range replicas {
		if r.Version != rounds {
			t.Errorf("reopened replica %s at version %d, want %d", r.Name, r.Version, rounds)
		}
	}
	if n := len(b2.Users().Snapshot()); n != workers*rounds {
		t.Errorf("reopened accounts = %d, want %d", n, workers*rounds)
	}
}

// TestParentBrokerStateLoads: testdata/broker_state.json was written by
// the broker before a replica became one compiled policy. It loads into
// the same directory, replica versions and search answers
// (broker_views.json, recorded from that broker after a restart), and
// re-saving it writes equal JSON.
func TestParentBrokerStateLoads(t *testing.T) {
	ctx := context.Background()
	data, err := os.ReadFile(filepath.Join("testdata", stateFileName))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, stateFileName), data, 0o600); err != nil {
		t.Fatal(err)
	}
	b, err := NewPersistent(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := b.snapshotState()
	if err != nil {
		t.Fatal(err)
	}
	resaved, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var got, want any
	if err := json.Unmarshal(resaved, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("re-saved state differs from the loaded file:\n got %s\nwant %s", resaved, data)
	}

	var bob auth.APIKey
	for _, u := range snap.Users {
		if u.Name == "Bob" {
			bob = u.Key
		}
	}
	reps := b.Replicas()
	for i := range reps {
		reps[i].SyncedAt = time.Time{}
	}
	dirList, err := b.Directory(bob)
	if err != nil {
		t.Fatal(err)
	}
	ref := time.Date(2011, 2, 16, 10, 0, 0, 0, time.UTC)
	searches := map[string][]string{}
	for name, q := range map[string]*SearchQuery{
		"any":      {Reference: ref},
		"ecg":      {Reference: ref, Sensors: []string{"ECG"}},
		"ucla-ecg": {Reference: ref, Sensors: []string{"ECG"}, LocationLabel: "UCLA"},
		"work":     {Reference: ref, LocationLabel: "Work"},
		"stress":   {Reference: ref, Contexts: map[rules.Category]rules.Level{rules.CategoryStress: rules.LevelNotShared}},
	} {
		if searches[name], err = b.SearchCtx(ctx, bob, q); err != nil {
			t.Fatal(err)
		}
	}
	views, err := json.Marshal(map[string]any{"replicas": reps, "directory": dirList, "searches": searches})
	if err != nil {
		t.Fatal(err)
	}
	wantViews, err := os.ReadFile(filepath.Join("testdata", "broker_views.json"))
	if err != nil {
		t.Fatal(err)
	}
	var gotV, wantV any
	if err := json.Unmarshal(views, &gotV); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(wantViews, &wantV); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotV, wantV) {
		t.Errorf("restored views:\n got %s\nwant %s", views, wantViews)
	}
}
