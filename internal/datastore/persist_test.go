package datastore

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sensorsafe/internal/auth"
	"sensorsafe/internal/geo"
	"sensorsafe/internal/query"
	"sensorsafe/internal/rules"
	"sensorsafe/internal/stream"
	"sensorsafe/internal/wavesegment"
)

func TestFullStateSurvivesReopen(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	alice, err := s.RegisterContributor("alice")
	if err != nil {
		t.Fatal(err)
	}
	bob, err := s.RegisterConsumer("Bob")
	if err != nil {
		t.Fatal(err)
	}
	rect, _ := geo.NewRect(geo.Point{Lat: 34.05, Lon: -118.46}, geo.Point{Lat: 34.08, Lon: -118.43})
	if err := s.DefinePlace(alice.Key, "UCLA", geo.Region{Rect: rect}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetRules(alice.Key, []byte(`[{"Group":["Study"],"LocationLabel":["UCLA"],"Action":"Allow"}]`)); err != nil {
		t.Fatal(err)
	}
	if err := s.AssignConsumerGroups(alice.Key, "Bob", []string{"Study"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.UploadCtx(ctx, alice.Key, packetStream("alice", t0, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: keys, rules, places, and group assignments all survive.
	s2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()

	// Old API keys still authenticate.
	rels, err := s2.QueryCtx(ctx, bob.Key, &query.Query{})
	if err != nil {
		t.Fatalf("Bob's key should survive: %v", err)
	}
	if len(rels) != 1 {
		t.Errorf("releases after reopen = %d, want 1 (rules+places+groups restored)", len(rels))
	}
	// Rules round trip.
	policy, err := s2.Policy(alice.Key)
	data := policy.Rules
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rules.UnmarshalRuleSet(data)
	if err != nil || len(rs) != 1 || len(rs[0].Groups) != 1 {
		t.Errorf("restored rules = %v, %v", rs, err)
	}
	// Places round trip.
	places := policy.Places
	if len(places) != 1 || places[0].Label != "UCLA" {
		t.Errorf("restored places = %v", places)
	}
	// New registrations continue to work (no key collisions).
	if _, err := s2.RegisterConsumer("Carol"); err != nil {
		t.Fatal(err)
	}
}

func TestInMemoryStoreSkipsPersistence(t *testing.T) {
	s := newService(t, Options{})
	if _, err := s.RegisterContributor("alice"); err != nil {
		t.Fatal(err)
	}
	// No state file anywhere; nothing to assert beyond "no error".
}

func TestCorruptStateFileRejected(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, stateFileName), []byte("{not json"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{Dir: dir}); err == nil {
		t.Error("corrupt state file should abort startup loudly, not be ignored")
	}
}

func TestTornTempFileDoesNotCorruptState(t *testing.T) {
	// Crash simulation: a process died mid-save, leaving a torn temp file
	// next to a complete state file (the atomic-rename protocol's only
	// possible wreckage). Reopen must load the intact state, and the next
	// fold must clobber the debris rather than trip over it.
	dir := t.TempDir()
	s, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	alice, err := s.RegisterContributor("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetRules(alice.Key, []byte(`[{"Action":"Allow"}]`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, stateFileName+".tmp")
	if err := os.WriteFile(torn, []byte(`{"users":[{"na`), 0o600); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatalf("torn temp file must not block reopen: %v", err)
	}
	defer s2.Close()
	policy, err := s2.Policy(alice.Key)
	data := policy.Rules
	if err != nil || len(data) == 0 {
		t.Fatalf("state lost after torn-temp crash: %v", err)
	}
	// The next fold overwrites the debris and leaves no temp behind.
	if _, err := s2.RegisterConsumer("Bob"); err != nil {
		t.Fatal(err)
	}
	if err := s2.foldCursorLog(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Errorf("temp file should be gone after a successful save: %v", err)
	}
}

func TestStateFilePermissions(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.RegisterContributor("alice"); err != nil {
		t.Fatal(err)
	}
	if err := s.foldCursorLog(); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(filepath.Join(dir, stateFileName))
	if err != nil {
		t.Fatal(err)
	}
	if perm := info.Mode().Perm(); perm != 0o600 {
		t.Errorf("state file mode = %o, want 600 (contains API keys)", perm)
	}
	info, err = os.Stat(filepath.Join(dir, cursorLogName))
	if err != nil {
		t.Fatal(err)
	}
	if perm := info.Mode().Perm(); perm != 0o600 {
		t.Errorf("cursor log mode = %o, want 600 (names consumers and their subscriptions)", perm)
	}
}

func TestRestoredRulesStillSync(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	alice, _ := s.RegisterContributor("alice")
	if err := s.SetRules(alice.Key, []byte(`[{"Action":"Allow"}]`)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	sync := &recordingSync{}
	s2, err := New(Options{Dir: dir, Sync: sync})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.AntiEntropy(); err != nil {
		t.Fatal(err)
	}
	if len(sync.calls) != 1 || sync.calls[0] != "alice" {
		t.Errorf("resync after restore = %v", sync.calls)
	}
}

// TestPreSegstoreDirectoryRefused plants the flat segment log older
// releases kept in the store directory: opening it must fail naming the
// file, not come up as an empty store.
func TestPreSegstoreDirectoryRefused(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "segments.wal")
	if err := os.WriteFile(old, []byte("legacy"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{Dir: dir})
	if err == nil {
		s.Close()
		t.Fatal("a directory holding segments.wal opened without error")
	}
	if !strings.Contains(err.Error(), old) {
		t.Errorf("error %q does not name %s", err, old)
	}
}

// TestEveryRuleSetHasAnIndex pins the invariant that every contributor's
// policy is a compiled index: after every mutation that (re)builds a
// contributor's policy, and after a reopen, each contributor with rules
// is listed by RuleIndexStats at its current rule version.
func TestEveryRuleSetHasAnIndex(t *testing.T) {
	dir := t.TempDir()
	s := newService(t, Options{Dir: dir})
	check := func(s *Service, step string, want map[string]uint64) {
		t.Helper()
		got := s.RuleIndexStats()
		for name, version := range want {
			if st, ok := got[name]; !ok || st.Version != version {
				t.Fatalf("%s: %s index = %+v (present %v), want version %d", step, name, st, ok, version)
			}
		}
	}
	alice, err := s.RegisterContributor("alice")
	if err != nil {
		t.Fatal(err)
	}
	carol, err := s.RegisterContributor("carol")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetRules(alice.Key, []byte(`[{"Action":"Allow"}]`)); err != nil {
		t.Fatal(err)
	}
	check(s, "SetRules alice", map[string]uint64{"alice": 1})
	rect, _ := geo.NewRect(geo.Point{Lat: 34.05, Lon: -118.46}, geo.Point{Lat: 34.08, Lon: -118.43})
	if err := s.DefinePlace(alice.Key, "UCLA", geo.Region{Rect: rect}); err != nil {
		t.Fatal(err)
	}
	check(s, "DefinePlace alice", map[string]uint64{"alice": 2})
	if err := s.DefinePlace(carol.Key, "UCLA", geo.Region{Rect: rect}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetRules(carol.Key, []byte(`[{"LocationLabel":["UCLA"],"Action":"Allow"}]`)); err != nil {
		t.Fatal(err)
	}
	check(s, "SetRules carol", map[string]uint64{"alice": 2, "carol": 2})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	check(newService(t, Options{Dir: dir}), "reopen", map[string]uint64{"alice": 2, "carol": 2})
}

// TestConcurrentSavesNeitherFailNorRegress races rule mutations, which
// append to the log and return the append's error, against stream
// registrations and acks, which append to it through the hub's OnChange
// hook. Every append returns without error, and the copy taken before any
// fold reopens at the last rule version and every last cursor: no
// frame with an older state landed after a newer one.
func TestConcurrentSavesNeitherFailNorRegress(t *testing.T) {
	ctx := context.Background()
	const workers, rounds = 4, 12
	dir := t.TempDir()
	s := newService(t, Options{Dir: dir})
	alice, err := s.RegisterContributor("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetRules(alice.Key, []byte(`[{"Action":"Allow"}]`)); err != nil {
		t.Fatal(err)
	}
	consumers := make([]auth.User, workers)
	subs := make([]stream.SubInfo, workers)
	for i := range consumers {
		if consumers[i], err = s.RegisterConsumer(fmt.Sprintf("consumer%d", i)); err != nil {
			t.Fatal(err)
		}
		if subs[i], err = s.Subscribe(consumers[i].Key, "alice", nil); err != nil {
			t.Fatal(err)
		}
	}
	// One stored segment per round, an hour apart so none merge: every
	// subscription gets `rounds` events to acknowledge one at a time.
	for r := 0; r < rounds; r++ {
		if _, err := s.UploadCtx(ctx, alice.Key, packetStream("alice", t0.Add(time.Duration(r)*time.Hour), 1)); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := s.SetRules(alice.Key, []byte(`[{"Action":"Allow"}]`)); err != nil {
					t.Errorf("SetRules: %v", err)
				}
			}
		}()
		go func(c auth.User, sub stream.SubInfo) {
			defer wg.Done()
			if _, err := s.Subscribe(c.Key, "alice", []string{wavesegment.ChannelECG}); err != nil {
				t.Errorf("Subscribe: %v", err)
			}
			for r := 1; r <= rounds; r++ {
				if err := s.StreamAck(c.Key, sub.ID, strconv.Itoa(r)); err != nil {
					t.Errorf("StreamAck: %v", err)
				}
			}
		}(consumers[i], subs[i])
	}
	wg.Wait()

	// Reopen a copy of the state file and the log as they stand now:
	// closing s would save once more and mask a stale last write. No fold
	// has run, so there may be no state file yet.
	dir2 := t.TempDir()
	for _, name := range []string{stateFileName, cursorLogName} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if errors.Is(err, os.ErrNotExist) && name == stateFileName {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir2, name), data, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	s2 := newService(t, Options{Dir: dir2})
	if _, version, err := s2.StreamEngine("alice"); err != nil || version != 1+workers*rounds {
		t.Errorf("reopened rule version = %d, %v; want %d", version, err, 1+workers*rounds)
	}
	if n := s2.Stream().Subscribers(); n != 2*workers {
		t.Errorf("reopened subscriptions = %d, want %d", n, 2*workers)
	}
	for i, c := range consumers {
		again, err := s2.Subscribe(c.Key, "alice", nil)
		if err != nil {
			t.Fatal(err)
		}
		if !again.Resumed || again.ID != subs[i].ID || again.Cursor != strconv.Itoa(rounds) {
			t.Errorf("reopened subscription %d = %+v, want resumed at cursor %d", i, again, rounds)
		}
	}
}

// TestMutationAfterCloseFails: Close folds and closes a persistent
// store's log, so a control mutation that arrives later reports that it
// was not made durable instead of returning as if it were.
func TestMutationAfterCloseFails(t *testing.T) {
	s, err := New(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	alice, err := s.RegisterContributor("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.SetRules(alice.Key, []byte(`[{"Action":"Allow"}]`)); err == nil {
		t.Error("SetRules after Close returned no error, but nothing logged it")
	}
}
