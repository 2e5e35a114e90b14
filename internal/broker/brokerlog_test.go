package broker

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"sensorsafe/internal/auth"
	"sensorsafe/internal/ruleindex"
	"sensorsafe/internal/walframe"
)

// kill stops b the way a crash would: the log is closed unfolded, so the
// state file and the log stay as the last returned call left them.
func kill(b *Service) {
	b.logMu.Lock()
	b.log.Close()
	b.logMu.Unlock()
}

func mustOpen(t testing.TB, dir string) *Service {
	t.Helper()
	b, err := NewPersistent(dir)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// snapshot returns b's persisted state, less the monotonic clock
// readings and locations of account times, which no file holds.
func snapshot(t testing.TB, b *Service) *persistedBrokerState {
	t.Helper()
	st, err := b.snapshotState()
	if err != nil {
		t.Fatal(err)
	}
	for i := range st.Users {
		st.Users[i].Registered = st.Users[i].Registered.Round(0).UTC()
	}
	return st
}

func mustRead(t testing.TB, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// frameOffsets returns where each frame of a log starts.
func frameOffsets(t testing.TB, data []byte) []int {
	t.Helper()
	var offs []int
	if err := walframe.Scan(data, 1, func(off int, _ []byte) error {
		offs = append(offs, off)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return offs
}

// brokerFixture is what seedBroker leaves: alice on store-alice with a
// rule replica, Bob as a consumer, a study named Study and the store.
type brokerFixture struct {
	bob   auth.User
	store *fakeStore
}

func seedBroker(t testing.TB, b *Service) brokerFixture {
	t.Helper()
	ctx := context.Background()
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
	if err := b.CreateStudy("Study"); err != nil {
		t.Fatal(err)
	}
	store := &fakeStore{addr: "store-alice"}
	b.RegisterStore(store)
	return brokerFixture{bob: bob, store: store}
}

// brokerMutations are the broker's mutation kinds, one call each.
var brokerMutations = []struct {
	name   string
	mutate func(b *Service, fx brokerFixture) error
}{
	{"RegisterContributor", func(b *Service, _ brokerFixture) error {
		return b.RegisterContributor(context.Background(), "Carol", "store-carol")
	}},
	{"SyncRules", func(b *Service, _ brokerFixture) error {
		return b.SyncRules(context.Background(), "alice", 2, []byte(`[{"Group":["Study"],"Sensor":["ECG"],"Action":"Allow"}]`), nil)
	}},
	{"SyncDigest", func(b *Service, _ brokerFixture) error { // changes two contributors
		_, err := b.SyncDigest(context.Background(), "store-alice", map[string]uint64{"alice": 5, "dave": 1})
		return err
	}},
	{"RegisterConsumer", func(b *Service, _ brokerFixture) error {
		_, err := b.RegisterConsumer("Erin")
		return err
	}},
	{"Connect", func(b *Service, fx brokerFixture) error {
		_, err := b.Connect(context.Background(), fx.bob.Key, "alice")
		return err
	}},
	{"SaveList", func(b *Service, fx brokerFixture) error {
		return b.SaveList(fx.bob.Key, "Cohort", []string{"alice", "carol"})
	}},
	{"CreateStudy", func(b *Service, _ brokerFixture) error { return b.CreateStudy("Pilot") }},
	{"JoinStudy", func(b *Service, fx brokerFixture) error { return b.JoinStudy(fx.bob.Key, "Study") }},
	{"EnrollContributor", func(b *Service, _ brokerFixture) error { return b.EnrollContributor("Study", "Alice") }},
}

// TestBrokerCrashAfterEachMutation: a crash right after any mutation
// returns loses nothing. The reopened broker replays its log, which is
// all it has (no fold ran), to the state it held before the crash.
func TestBrokerCrashAfterEachMutation(t *testing.T) {
	for _, m := range brokerMutations {
		t.Run(m.name, func(t *testing.T) {
			dir := t.TempDir()
			b := mustOpen(t, dir)
			fx := seedBroker(t, b)
			before := snapshot(t, b)
			if err := m.mutate(b, fx); err != nil {
				t.Fatal(err)
			}
			want := snapshot(t, b)
			if reflect.DeepEqual(want, before) {
				t.Fatal("the mutation changed nothing")
			}
			kill(b)
			b2 := mustOpen(t, dir)
			defer b2.Close()
			if got := snapshot(t, b2); !reflect.DeepEqual(got, want) {
				t.Errorf("reopened state:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestBrokerMutationsAppendFramesNotStateWrites: each mutation kind
// appends exactly one frame, and none writes the state file.
func TestBrokerMutationsAppendFramesNotStateWrites(t *testing.T) {
	dir := t.TempDir()
	b := mustOpen(t, dir)
	defer kill(b)
	fx := brokerFixture{store: &fakeStore{addr: "store-alice"}}
	b.RegisterStore(fx.store)
	ctx := context.Background()
	if err := b.RegisterContributor(ctx, "alice", "store-alice"); err != nil {
		t.Fatal(err)
	}
	var err error
	if fx.bob, err = b.RegisterConsumer("Bob"); err != nil {
		t.Fatal(err)
	}
	if err := b.CreateStudy("Study"); err != nil {
		t.Fatal(err)
	}
	for _, m := range brokerMutations[1:] {
		if m.name == "RegisterConsumer" || m.name == "CreateStudy" {
			continue // made above, for the mutations that need them
		}
		if err := m.mutate(b, fx); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
	}
	if n := len(frameOffsets(t, mustRead(t, filepath.Join(dir, logName)))); n != len(brokerMutations) {
		t.Errorf("%d mutations left %d frames", len(brokerMutations), n)
	}
	if _, err := os.Stat(filepath.Join(dir, stateFileName)); !os.IsNotExist(err) {
		t.Errorf("a mutation wrote the state file: %v", err)
	}
}

// TestBrokerMutationAfterCloseFails: Close folds the log into the state
// file, leaving the log empty, and a mutation after it fails instead of
// taking effect in memory only.
func TestBrokerMutationAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	b := mustOpen(t, dir)
	if _, err := b.RegisterConsumer("bob"); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if got := mustRead(t, filepath.Join(dir, logName)); len(got) != 0 {
		t.Errorf("Close left %d log bytes", len(got))
	}
	if err := b.CreateStudy("Study"); err == nil {
		t.Error("a mutation after Close succeeded")
	}
	if _, err := b.StudyMembers("Study"); err == nil {
		t.Error("a study whose creation failed is visible")
	}
	b2 := mustOpen(t, dir)
	defer b2.Close()
	if n := len(b2.Users().Snapshot()); n != 1 {
		t.Errorf("reopened accounts = %d, want 1", n)
	}
}

// TestBrokerFailedAppendChangesNothing: a mutation whose append fails,
// here because the broker is closed, errors and leaves the state as it
// was, for every mutation kind.
func TestBrokerFailedAppendChangesNothing(t *testing.T) {
	for _, m := range brokerMutations {
		t.Run(m.name, func(t *testing.T) {
			b := mustOpen(t, t.TempDir())
			fx := seedBroker(t, b)
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			before := snapshot(t, b)
			if err := m.mutate(b, fx); !errors.Is(err, os.ErrClosed) {
				t.Errorf("the mutation returned %v, want %v", err, os.ErrClosed)
			}
			if got := snapshot(t, b); !reflect.DeepEqual(got, before) {
				t.Errorf("state after a failed append:\n got %+v\nwant %+v", got, before)
			}
			if _, err := b.StudyMembers("Pilot"); err == nil {
				t.Error("a study whose creation failed is visible")
			}
		})
	}
}

// TestIdempotentRetriesAppendNoFrame: a retried mutation that finds its
// change already made appends no frame.
func TestIdempotentRetriesAppendNoFrame(t *testing.T) {
	ctx := context.Background()
	b := mustOpen(t, t.TempDir())
	defer b.Close()
	fx := seedBroker(t, b)
	for _, r := range []struct {
		name string
		call func() error
	}{
		{"RegisterContributor", func() error { return b.RegisterContributor(ctx, "alice", "store-alice") }},
		{"SyncRules", func() error { return b.SyncRules(ctx, "alice", 2, []byte(`[]`), nil) }},
		{"SyncDigest", func() error {
			_, err := b.SyncDigest(ctx, "store-alice", map[string]uint64{"alice": 3, "dave": 1})
			return err
		}},
		{"Connect", func() error {
			_, err := b.Connect(ctx, fx.bob.Key, "alice")
			return err
		}},
		{"SaveList", func() error { return b.SaveList(fx.bob.Key, "Cohort", []string{"alice", "carol"}) }},
		{"CreateStudy", func() error { return b.CreateStudy("Pilot") }},
		{"JoinStudy", func() error { return b.JoinStudy(fx.bob.Key, "Study") }},
		{"EnrollContributor", func() error { return b.EnrollContributor("Study", "Alice") }},
	} {
		if err := r.call(); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		size := logLen(b)
		if err := r.call(); err != nil {
			t.Fatalf("%s retried: %v", r.name, err)
		}
		if got := logLen(b); got != size {
			t.Errorf("%s retried: the log grew %d → %d bytes", r.name, size, got)
		}
	}
}

// logLen is the size of b's log in bytes.
func logLen(b *Service) int {
	b.logMu.Lock()
	defer b.logMu.Unlock()
	return int(b.log.Len())
}

// TestParentBrokerLogReplays: testdata/parentlog holds a state file and a
// log of one frame per mutation kind, both written by the broker before a
// mutation applied the frame it appended. Replayed here they give the
// state that broker replayed them to, snapshot.json.
func TestParentBrokerLogReplays(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{stateFileName, logName} {
		if err := os.WriteFile(filepath.Join(dir, name), mustRead(t, filepath.Join("testdata", "parentlog", name)), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(frameOffsets(t, mustRead(t, filepath.Join(dir, logName)))); n != len(brokerMutations) {
		t.Fatalf("the fixture log holds %d frames, want one per mutation kind (%d)", n, len(brokerMutations))
	}
	b := mustOpen(t, dir)
	defer b.Close()
	replayed, err := json.Marshal(snapshot(t, b))
	if err != nil {
		t.Fatal(err)
	}
	golden := mustRead(t, filepath.Join("testdata", "parentlog", "snapshot.json"))
	var got, want any
	if err := json.Unmarshal(replayed, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(golden, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("replayed state differs from the parent's:\n got %s\nwant %s", replayed, golden)
	}
}

// TestBrokerCrashTornFinalFrame: a crash in the middle of the last
// append restores the state before it, and the next frame lands after
// the folded torn tail.
func TestBrokerCrashTornFinalFrame(t *testing.T) {
	for name, tear := range map[string]func(data []byte, last int) []byte{
		"cut short":    func(data []byte, last int) []byte { return data[:len(data)-5] },
		"CRC mismatch": func(data []byte, last int) []byte { data[len(data)-3] ^= 0xFF; return data },
		"header only":  func(data []byte, last int) []byte { return data[:last+walframe.HeaderLen-2] },
	} {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			dir := t.TempDir()
			b := mustOpen(t, dir)
			seedBroker(t, b)
			want := snapshot(t, b)
			if err := b.SyncRules(ctx, "alice", 2, []byte(`[]`), nil); err != nil {
				t.Fatal(err)
			}
			kill(b)
			path := filepath.Join(dir, logName)
			data := mustRead(t, path)
			offs := frameOffsets(t, data)
			if err := os.WriteFile(path, tear(data, offs[len(offs)-1]), 0o600); err != nil {
				t.Fatal(err)
			}
			b = mustOpen(t, dir)
			if got := snapshot(t, b); !reflect.DeepEqual(got, want) {
				t.Fatalf("state after a torn final frame:\n got %+v\nwant %+v", got, want)
			}
			if err := b.SyncRules(ctx, "alice", 3, []byte(`[]`), nil); err != nil {
				t.Fatal(err)
			}
			kill(b)
			b = mustOpen(t, dir)
			defer b.Close()
			if reps := b.Replicas(); len(reps) != 1 || reps[0].Version != 3 {
				t.Errorf("replicas after a torn tail and one more push = %+v, want alice at 3", reps)
			}
		})
	}
}

// TestBrokerBadFrameFailsOpen: a corrupt frame before the last, or a
// whole frame whose rule replica does not compile, fails the open and
// leaves the log as it was.
func TestBrokerBadFrameFailsOpen(t *testing.T) {
	for name, spoil := range map[string]func(data []byte, offs []int) []byte{
		"corrupt inner frame": func(data []byte, offs []int) []byte {
			data[offs[1]+walframe.HeaderLen+2] ^= 0xFF
			return data
		},
		"rules do not compile": func(data []byte, _ []int) []byte {
			return walframe.Append(data, []byte(`{"contributors":{"alice":{"name":"alice","rules":[{"Action":"Sometimes"}],"ruleVersion":9}}}`))
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			b := mustOpen(t, dir)
			seedBroker(t, b)
			kill(b)
			path := filepath.Join(dir, logName)
			data := mustRead(t, path)
			data = spoil(data, frameOffsets(t, data))
			if err := os.WriteFile(path, data, 0o600); err != nil {
				t.Fatal(err)
			}
			if b, err := NewPersistent(dir); err == nil {
				kill(b)
				t.Fatal("the open succeeded")
			}
			if got := mustRead(t, path); !bytes.Equal(got, data) {
				t.Error("a failed open changed the log")
			}
			if _, err := os.Stat(filepath.Join(dir, stateFileName)); !os.IsNotExist(err) {
				t.Errorf("a failed open wrote the state file: %v", err)
			}
		})
	}
}

// TestBrokerReplayIsIdempotent runs random mutations and checks the two
// things a crash can leave. A log cut after any frame replays to the
// state the broker held when that frame's call returned. The whole log
// replayed over the state file a fold wrote at any point (a crash after
// the fold's state write, before its truncate) reaches the final state.
func TestBrokerReplayIsIdempotent(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	b := mustOpen(t, dir)
	fx := seedBroker(t, b)
	rng := rand.New(rand.NewSource(1))
	names := []string{"alice", "Bob", "carol", "dave"}
	rules := []string{`[]`, `[{"Action":"Allow"}]`, `[{"Group":["Study"],"Sensor":["ECG"],"Action":"Allow"}]`}
	snaps := []*persistedBrokerState{snapshot(t, b)}
	cuts := []int{logLen(b)}
	keys := []auth.APIKey{fx.bob.Key}
	versions := map[string]uint64{"alice": 1}
	// mutation returns a call of the given kind, its arguments drawn now.
	mutation := func(kind, i int) func() error {
		name := names[rng.Intn(len(names))]
		key := keys[rng.Intn(len(keys))]
		switch kind {
		case 0:
			return func() error { return b.RegisterContributor(ctx, name, "store-alice") }
		case 1:
			versions[name]++
			v, rs := versions[name], rules[rng.Intn(len(rules))]
			return func() error { return b.SyncRules(ctx, name, v, []byte(rs), workPlaces(t)) }
		case 2:
			digest := map[string]uint64{name: versions[name] + uint64(rng.Intn(2))}
			return func() error {
				_, err := b.SyncDigest(ctx, "store-alice", digest)
				return err
			}
		case 3:
			consumer := fmt.Sprintf("consumer%d", i)
			return func() error {
				u, err := b.RegisterConsumer(consumer)
				if err == nil {
					keys = append(keys, u.Key)
				}
				return err
			}
		case 4:
			return func() error {
				_, err := b.Connect(ctx, key, "alice")
				return err
			}
		case 5:
			members := names[:rng.Intn(len(names))]
			return func() error { return b.SaveList(key, "list", members) }
		case 6:
			study := fmt.Sprintf("study%d", rng.Intn(3))
			return func() error { return b.CreateStudy(study) }
		case 7:
			return func() error { return b.JoinStudy(key, "Study") }
		default:
			return func() error { return b.EnrollContributor("Study", name) }
		}
	}
	var last func() error
	for i := 0; i < 80; i++ {
		var err error
		switch kind := rng.Intn(11); {
		case kind < 9:
			last = mutation(kind, i)
			err = last()
		case kind == 9 && last != nil: // a retry finds its change made
			before := logLen(b)
			if err = last(); errors.Is(err, auth.ErrDuplicateUser) {
				err = nil
			}
			if logLen(b) != before {
				t.Fatalf("mutation %d: a retry appended a frame", i)
			}
		case kind == 10: // a failed append changes nothing
			b.logMu.Lock()
			live := b.log
			b.log = new(walframe.Log) // closed
			b.logMu.Unlock()
			failed := mutation(rng.Intn(9), i)()
			b.logMu.Lock()
			b.log = live
			b.logMu.Unlock()
			if failed != nil && !errors.Is(failed, os.ErrClosed) {
				t.Fatalf("mutation %d against a closed log: %v", i, failed)
			}
			if got := snapshot(t, b); !reflect.DeepEqual(got, snaps[len(snaps)-1]) {
				t.Fatalf("mutation %d: a failed append changed the state:\n got %+v\nwant %+v", i, got, snaps[len(snaps)-1])
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, snapshot(t, b))
		cuts = append(cuts, logLen(b))
	}
	final := snapshot(t, b)
	kill(b)
	logged := mustRead(t, filepath.Join(dir, logName))
	reopen := func(state *persistedBrokerState, log []byte) *persistedBrokerState {
		t.Helper()
		dir := t.TempDir()
		if state != nil {
			data, err := json.Marshal(state)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, stateFileName), data, 0o600); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, logName), log, 0o600); err != nil {
			t.Fatal(err)
		}
		b := mustOpen(t, dir)
		defer b.Close()
		return snapshot(t, b)
	}
	for k, snap := range snaps {
		if got := reopen(nil, logged[:cuts[k]]); !reflect.DeepEqual(got, snap) {
			t.Fatalf("log cut after mutation %d:\n got %+v\nwant %+v", k, got, snap)
		}
		if got := reopen(snap, logged); !reflect.DeepEqual(got, final) {
			t.Fatalf("log replayed over snapshot %d:\n got %+v\nwant %+v", k, got, final)
		}
	}
}

// blockingStore provisions once both Connects are in flight: the second
// has either reached the store too (provisioned twice) or is waiting for
// the first, which closes parked.
type blockingStore struct {
	mu     sync.Mutex
	calls  int
	second chan struct{} // closed by the second call
	parked chan struct{}
}

func (s *blockingStore) Addr() string { return "store-alice" }

func (s *blockingStore) ProvisionConsumer(_ context.Context, name string) (auth.APIKey, error) {
	s.mu.Lock()
	s.calls++
	n := s.calls
	s.mu.Unlock()
	if n == 2 {
		close(s.second)
	}
	select {
	case <-s.second:
	case <-s.parked:
	}
	return auth.APIKey(fmt.Sprintf("key-%s-%d", name, n)), nil
}

// parkedCtx reports when Connect first asks for Done, which it does only
// to wait for another Connect's provisioning.
type parkedCtx struct {
	context.Context
	park func()
}

func (c parkedCtx) Done() <-chan struct{} {
	c.park()
	return c.Context.Done()
}

// TestConnectConcurrentFirstProvisionsOnce: two first Connects of one
// consumer to one store at once provision once and get the same key;
// two provisionings would have the store register the name twice.
func TestConnectConcurrentFirstProvisionsOnce(t *testing.T) {
	ctx := context.Background()
	b := New()
	store := &blockingStore{second: make(chan struct{}), parked: make(chan struct{})}
	b.RegisterStore(store)
	if err := b.RegisterContributor(ctx, "alice", store.Addr()); err != nil {
		t.Fatal(err)
	}
	bob, err := b.RegisterConsumer("bob")
	if err != nil {
		t.Fatal(err)
	}
	park := sync.OnceFunc(func() { close(store.parked) })
	creds := make([]Credential, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range creds {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			creds[i], errs[i] = b.Connect(parkedCtx{ctx, park}, bob.Key, "alice")
		}(i)
	}
	wg.Wait()
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("Connect errors: %v, %v", errs[0], errs[1])
	}
	if store.calls != 1 || creds[0] != creds[1] {
		t.Errorf("%d provisionings, credentials %+v and %+v; want one provisioning and one key", store.calls, creds[0], creds[1])
	}
}

// FuzzBrokerLog: no log panics the open, a failed open leaves the log as
// it was, and an accepted log replayed over the state its open folded
// reaches that state again.
func FuzzBrokerLog(f *testing.F) {
	for _, m := range brokerMutations {
		dir := f.TempDir()
		b := mustOpen(f, dir)
		// Connect, SaveList, JoinStudy and EnrollContributor fail on an
		// empty broker; the whole run below holds their frames.
		if err := m.mutate(b, brokerFixture{store: &fakeStore{addr: "store-alice"}}); err == nil {
			f.Add(mustRead(f, filepath.Join(dir, logName)))
		}
		kill(b)
	}
	// One frame of each kind, as the mutation builds it on a seeded broker.
	for _, m := range brokerMutations {
		dir := f.TempDir()
		b := mustOpen(f, dir)
		fx := seedBroker(f, b)
		seeded := logLen(b)
		if err := m.mutate(b, fx); err != nil {
			f.Fatalf("%s: %v", m.name, err)
		}
		kill(b)
		f.Add(mustRead(f, filepath.Join(dir, logName))[seeded:])
	}
	dir := f.TempDir()
	b := mustOpen(f, dir)
	fx := brokerFixture{store: &fakeStore{addr: "store-alice"}}
	b.RegisterStore(fx.store)
	ctx := context.Background()
	_ = b.RegisterContributor(ctx, "alice", "store-alice")
	_ = b.SyncRules(ctx, "alice", 1, []byte(`[{"Group":["Study"],"Action":"Allow"}]`), nil)
	fx.bob, _ = b.RegisterConsumer("Bob")
	_ = b.CreateStudy("Study")
	for _, m := range brokerMutations {
		if err := m.mutate(b, fx); err != nil {
			f.Fatalf("%s: %v", m.name, err)
		}
	}
	kill(b)
	all := mustRead(f, filepath.Join(dir, logName))
	f.Add(all)
	f.Add(all[:len(all)-3])
	f.Add(walframe.Append(nil, []byte(`{"contributors":{"alice":{"name":"alice","rules":[{"Action":"Sometimes"}],"ruleVersion":2}}}`)))
	f.Add(walframe.Append(nil, []byte(`{"users":[{"Name":"bob","Key":"k1"},{"Name":"Bob","Key":"k2"}],"consumers":{"bob":null},"studies":{"s":null}}`)))
	f.Add(walframe.Append(nil, []byte(`{"contributors":null,"studyRosters":{"s":["A","a"]}}`)))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, logName)
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		b, err := NewPersistent(dir)
		if err != nil {
			if got := mustRead(t, path); !bytes.Equal(got, data) {
				t.Fatal("a failed open changed the log")
			}
			return
		}
		once := snapshot(t, b)
		for _, pc := range once.Contributors {
			if _, err := ruleindex.Load(pc.State); err != nil {
				t.Fatalf("the open accepted a replica that does not compile: %v", err)
			}
		}
		kill(b)
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		b, err = NewPersistent(dir)
		if err != nil {
			t.Fatalf("the log failed to replay over the state its own open folded: %v", err)
		}
		defer kill(b)
		if twice := snapshot(t, b); !reflect.DeepEqual(once, twice) {
			t.Fatalf("replay is not idempotent:\n once %+v\ntwice %+v", once, twice)
		}
	})
}
