package datastore

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"sensorsafe/internal/auth"
	"sensorsafe/internal/geo"
	"sensorsafe/internal/ruleindex"
	"sensorsafe/internal/rules"
	"sensorsafe/internal/stream"
	"sensorsafe/internal/walframe"
)

// kill stops s the way a crash would: no fold and no last state-file
// write, so the state file and the cursor log stay as the last returned
// call left them. The segment engine closes normally; these tests are
// about the state file and the cursor log.
func kill(s *Service) {
	s.cancel()
	s.logMu.Lock()
	s.log.Close()
	s.logMu.Unlock()
	s.store.Close()
}

// foldCursorLog folds a log that holds frames, as New does at open.
func (s *Service) foldCursorLog() error {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	if s.log.Len() == 0 {
		return nil
	}
	return s.log.Fold(s.saveState())
}

// replayLog replays a log over st as an opening store does, on an
// in-memory store, and leaves in st the accounts and policies that store
// then holds and the subscriptions replay merged.
func replayLog(st *persistedState, data []byte) error {
	s, err := New(Options{})
	if err != nil {
		return err
	}
	defer s.Close()
	s.logMu.Lock()
	defer s.logMu.Unlock()
	if err := s.replay(st, data); err != nil {
		return err
	}
	got, err := s.snapshotState()
	if err != nil {
		return err
	}
	got.Subscriptions = st.Subscriptions
	*st = *got
	return nil
}

// mustNew opens a store the test kills instead of closing.
func mustNew(t *testing.T, dir string) *Service {
	t.Helper()
	s, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// subscribedBob registers alice and Bob, subscribes Bob to alice and
// publishes n segments for him to acknowledge.
func subscribedBob(t *testing.T, s *Service, n int) (bob auth.User, sub stream.SubInfo) {
	t.Helper()
	_, bob = setupAliceBob(t, s)
	sub, err := s.Subscribe(bob.Key, "alice", nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		s.stream.Publish("alice", packet("alice", t0, 4))
	}
	return bob, sub
}

func ackTo(t *testing.T, s *Service, key auth.APIKey, id string, from, to int) {
	t.Helper()
	for c := from; c <= to; c++ {
		if err := s.StreamAck(key, id, strconv.Itoa(c)); err != nil {
			t.Fatal(err)
		}
	}
}

// resumedCursor reopens dir (without closing what it opens) and returns
// the cursor Bob's subscription resumes at.
func resumedCursor(t *testing.T, dir string, bob auth.User, sub stream.SubInfo) string {
	t.Helper()
	s := mustNew(t, dir)
	defer kill(s)
	again, err := s.Subscribe(bob.Key, "alice", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Resumed || again.ID != sub.ID {
		t.Fatalf("reopened subscription = %+v, want %s resumed", again, sub.ID)
	}
	return again.Cursor
}

// TestStreamAcksAppendFramesNotStateWrites: a cursor advance appends one
// frame to the cursor log and rewrites no state file.
func TestStreamAcksAppendFramesNotStateWrites(t *testing.T) {
	s := newService(t, Options{Dir: t.TempDir()})
	bob, sub := subscribedBob(t, s, 50)
	frames, writes := metricCursorLogFrames.Value(), metricStateWrites.Value()
	ackTo(t, s, bob.Key, sub.ID, 1, 50)
	if got := metricCursorLogFrames.Value() - frames; got != 50 {
		t.Errorf("50 acks appended %v cursor-log frames, want 50", got)
	}
	if got := metricStateWrites.Value() - writes; got != 0 {
		t.Errorf("50 acks rewrote the state file %v times, want 0", got)
	}
}

// TestCrashAfterAcksRestoresLastCursor: killed after its acks, a store
// resumes at the last acknowledged cursor, explicit or implied by a poll.
func TestCrashAfterAcksRestoresLastCursor(t *testing.T) {
	dir := t.TempDir()
	s := mustNew(t, dir)
	bob, sub := subscribedBob(t, s, 6)
	ackTo(t, s, bob.Key, sub.ID, 1, 3)
	if got := resumedCursorOf(t, s, bob, sub); got != "3" {
		t.Fatalf("live cursor = %s, want 3", got)
	}
	if _, err := s.StreamNext(bob.Key, sub.ID, "5", 0); err != nil { // acknowledges 5
		t.Fatal(err)
	}
	kill(s)
	if got := resumedCursor(t, dir, bob, sub); got != "5" {
		t.Errorf("cursor after crash = %s, want 5", got)
	}
}

func resumedCursorOf(t *testing.T, s *Service, bob auth.User, sub stream.SubInfo) string {
	t.Helper()
	again, err := s.Subscribe(bob.Key, "alice", nil)
	if err != nil || again.ID != sub.ID {
		t.Fatalf("Subscribe = %+v, %v", again, err)
	}
	return again.Cursor
}

// frameOffsets returns where each frame of a cursor log starts.
func frameOffsets(t *testing.T, data []byte) []int {
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

// TestCrashTornFinalFrame: a final frame cut short or failing its CRC is
// an append the crash interrupted; the store resumes at the cursor before
// it, and the next ack lands cleanly after the fold that drops it.
func TestCrashTornFinalFrame(t *testing.T) {
	for name, tear := range map[string]func(data []byte, last int) []byte{
		"cut short":    func(data []byte, last int) []byte { return data[:len(data)-5] },
		"CRC mismatch": func(data []byte, last int) []byte { data[len(data)-3] ^= 0xFF; return data },
		"header only":  func(data []byte, last int) []byte { return data[:last+walframe.HeaderLen-2] },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s := mustNew(t, dir)
			bob, sub := subscribedBob(t, s, 4)
			ackTo(t, s, bob.Key, sub.ID, 1, 3)
			kill(s)
			path := filepath.Join(dir, cursorLogName)
			data := mustRead(t, path)
			offs := frameOffsets(t, data)
			if err := os.WriteFile(path, tear(data, offs[len(offs)-1]), 0o600); err != nil {
				t.Fatal(err)
			}
			if got := resumedCursor(t, dir, bob, sub); got != "2" {
				t.Fatalf("cursor after torn final frame = %s, want 2", got)
			}
			s = mustNew(t, dir)
			ackTo(t, s, bob.Key, sub.ID, 4, 4)
			kill(s)
			if got := resumedCursor(t, dir, bob, sub); got != "4" {
				t.Errorf("cursor after a torn tail and one more ack = %s, want 4", got)
			}
		})
	}
}

// TestCrashCorruptInnerFrameIsAnError: every frame but the last was
// fsynced before the next was written, so a CRC mismatch there is
// corruption, not a crash point, and the store refuses to open.
func TestCrashCorruptInnerFrameIsAnError(t *testing.T) {
	dir := t.TempDir()
	s := mustNew(t, dir)
	bob, sub := subscribedBob(t, s, 4)
	ackTo(t, s, bob.Key, sub.ID, 1, 3)
	kill(s)
	path := filepath.Join(dir, cursorLogName)
	data := mustRead(t, path)
	offs := frameOffsets(t, data)
	data[offs[1]+walframe.HeaderLen+2] ^= 0xFF // inside the second of four frames
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	if s, err := New(Options{Dir: dir}); err == nil {
		kill(s)
		t.Fatal("a corrupt frame before the last must fail the open")
	}
	if got := mustRead(t, path); !bytes.Equal(got, data) {
		t.Error("a failed open changed the cursor log")
	}
}

// TestCrashBetweenFoldAndLogReset: the fold wrote the state file but the
// crash came before the log was emptied. Replaying the whole log over
// the newer state file moves no cursor back — not even next, which the
// fold captured past the last frame — does not bring back a
// subscription that was unsubscribed, and rolls back no policy version,
// key rotation or group assignment logged between the cursor frames.
func TestCrashBetweenFoldAndLogReset(t *testing.T) {
	dir := t.TempDir()
	s := mustNew(t, dir)
	bob, sub := subscribedBob(t, s, 4)
	alice := s.users.Snapshot()[1] // sorted by name: Bob, alice
	carol, err := s.RegisterConsumer("carol")
	if err != nil {
		t.Fatal(err)
	}
	gone, err := s.Subscribe(carol.Key, "alice", nil)
	if err != nil {
		t.Fatal(err)
	}
	ackTo(t, s, bob.Key, sub.ID, 1, 1)
	if err := s.SetRules(alice.Key, []byte(`[{"Action":"Allow"}]`)); err != nil {
		t.Fatal(err)
	}
	oldKeys := []auth.APIKey{bob.Key}
	for i := 0; i < 2; i++ {
		fresh, err := s.RotateKey(bob.Key)
		if err != nil {
			t.Fatal(err)
		}
		oldKeys, bob.Key = append(oldKeys, bob.Key), fresh
	}
	ackTo(t, s, bob.Key, sub.ID, 2, 2)
	if err := s.AssignConsumerGroups(alice.Key, "Bob", []string{"Study"}); err != nil {
		t.Fatal(err)
	}
	revoke := []byte(`[{"Group":["Study"],"Action":"Deny"}]`)
	if err := s.SetRules(alice.Key, revoke); err != nil {
		t.Fatal(err)
	}
	ackTo(t, s, bob.Key, sub.ID, 3, 3)
	if err := s.Unsubscribe(carol.Key, gone.ID); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // next moves to 7 with no frame
		s.stream.Publish("alice", packet("alice", t0, 4))
	}
	path := filepath.Join(dir, cursorLogName)
	logged := mustRead(t, path)
	if err := s.foldCursorLog(); err != nil {
		t.Fatal(err)
	}
	if got := mustRead(t, path); len(got) != 0 {
		t.Fatalf("fold left %d log bytes", len(got))
	}
	if err := os.WriteFile(path, logged, 0o600); err != nil { // the reset never reached the disk
		t.Fatal(err)
	}
	kill(s)

	s2 := mustNew(t, dir)
	defer kill(s2)
	subs := s2.stream.Snapshot()
	if len(subs) != 1 || subs[0].ID != sub.ID || subs[0].Acked != 3 || subs[0].Next != 7 {
		t.Fatalf("subscriptions after the crash = %+v, want only %s at acked 3, next 7", subs, sub.ID)
	}
	policy, err := s2.Policy(alice.Key)
	if err != nil || policy.RuleVersion != 2 {
		t.Fatalf("policy after the crash = %+v, %v; want version 2", policy, err)
	}
	if rs, err := rules.UnmarshalRuleSet(policy.Rules); err != nil || len(rs) != 1 || rs[0].Action.Kind != rules.ActionDeny {
		t.Errorf("rules after the crash = %s, want the revocation", policy.Rules)
	}
	for _, old := range oldKeys {
		if _, err := s2.users.Authenticate(old); err == nil {
			t.Errorf("rotated-out key %.8s… authenticates after the crash", old)
		}
	}
	if _, err := s2.users.Authenticate(bob.Key); err != nil {
		t.Errorf("Bob's last key after the crash: %v", err)
	}
	if groups := s2.contributors["alice"].Groups["bob"]; !reflect.DeepEqual(groups, []string{"Study"}) {
		t.Errorf("Bob's groups after the crash = %v, want [Study]", groups)
	}
}

// TestFoldLosesNothing races acks against folds: every ack that returned
// is in the state file a fold wrote or in the log after it, so a kill at
// the end resumes every subscription at its last ack.
func TestFoldLosesNothing(t *testing.T) {
	const workers, rounds = 4, 40
	dir := t.TempDir()
	s := mustNew(t, dir)
	if _, err := s.RegisterContributor("alice"); err != nil {
		t.Fatal(err)
	}
	consumers := make([]auth.User, workers)
	subs := make([]stream.SubInfo, workers)
	for i := range consumers {
		var err error
		if consumers[i], err = s.RegisterConsumer("consumer" + strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
		if subs[i], err = s.Subscribe(consumers[i].Key, "alice", nil); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < rounds; r++ {
		s.stream.Publish("alice", packet("alice", t0, 4))
	}
	writes := metricStateWrites.Value()
	stop, folder := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(folder)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.foldCursorLog(); err != nil {
				t.Error(err)
			}
			runtime.Gosched()
		}
	}()
	var wg sync.WaitGroup
	for i := range consumers {
		wg.Add(1)
		go func(c auth.User, sub stream.SubInfo) {
			defer wg.Done()
			for r := 1; r <= rounds; r++ {
				if err := s.StreamAck(c.Key, sub.ID, strconv.Itoa(r)); err != nil {
					t.Error(err)
				}
			}
		}(consumers[i], subs[i])
	}
	wg.Wait()
	close(stop)
	<-folder
	if metricStateWrites.Value() == writes {
		t.Fatal("no fold ran during the acks")
	}
	kill(s)

	s2 := mustNew(t, dir)
	defer kill(s2)
	for i, c := range consumers {
		again, err := s2.Subscribe(c.Key, "alice", nil)
		if err != nil {
			t.Fatal(err)
		}
		if !again.Resumed || again.ID != subs[i].ID || again.Cursor != strconv.Itoa(rounds) {
			t.Errorf("subscription %d after folds and a kill = %+v, want resumed at %d", i, again, rounds)
		}
	}
}

// TestLogPastThresholdIsFolded: the append that takes the log past
// walframe.FoldBytes folds it before the ack returns: the state file
// holds the new cursor and the log is empty.
func TestLogPastThresholdIsFolded(t *testing.T) {
	dir := t.TempDir()
	s := newService(t, Options{Dir: dir})
	bob, sub := subscribedBob(t, s, 2)
	padToFold(t, s, sub.ID) // as if some ten thousand acks were logged
	ackTo(t, s, bob.Key, sub.ID, 1, 1)
	s.logMu.Lock()
	folded := s.log.Len() == 0
	s.logMu.Unlock()
	if !folded {
		t.Fatal("no fold after the log passed its threshold")
	}
	if got := mustRead(t, filepath.Join(dir, cursorLogName)); len(got) != 0 {
		t.Errorf("fold left %d log bytes", len(got))
	}
	var st persistedState
	if err := json.Unmarshal(mustRead(t, filepath.Join(dir, stateFileName)), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Subscriptions) != 1 || st.Subscriptions[0].Acked != 1 {
		t.Errorf("folded subscriptions = %+v, want one acked at 1", st.Subscriptions)
	}
}

// padToFold appends one frame, the subscription's durable state padded
// with blanks, that leaves the log a byte short of walframe.FoldBytes.
func padToFold(t *testing.T, s *Service, id string) {
	t.Helper()
	st, _ := s.stream.Subscription(id)
	st.ID = id
	body, err := json.Marshal(logRecord{SubscriptionState: &st})
	if err != nil {
		t.Fatal(err)
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	pad := walframe.FoldBytes - 1 - s.log.Len() - walframe.HeaderLen - int64(len(body))
	if _, err := s.log.Append(append(body, bytes.Repeat([]byte{' '}, int(pad))...)); err != nil {
		t.Fatal(err)
	}
}

// TestParentDirectoryResumes: a directory written before the cursor log
// existed — a state file with subscriptions and no log — resumes at its
// cursors, and opening it does not rewrite the state file.
func TestParentDirectoryResumes(t *testing.T) {
	dir := t.TempDir()
	s := mustNew(t, dir)
	bob, sub := subscribedBob(t, s, 4)
	ackTo(t, s, bob.Key, sub.ID, 1, 3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, cursorLogName)); err != nil {
		t.Fatal(err)
	}
	state := mustRead(t, filepath.Join(dir, stateFileName))
	if got := resumedCursor(t, dir, bob, sub); got != "3" {
		t.Errorf("cursor in a parent-written directory = %s, want 3", got)
	}
	if got := mustRead(t, filepath.Join(dir, stateFileName)); !bytes.Equal(got, state) {
		t.Error("opening a directory without a cursor log rewrote the state file")
	}
}

// TestParentStateFileLoadsWithoutClose: the state file in testdata,
// written before the policy refactor, opened and killed, keeps its bytes
// and restores its subscriptions as written.
func TestParentStateFileLoadsWithoutClose(t *testing.T) {
	dir := t.TempDir()
	fixture := mustRead(t, filepath.Join("testdata", "state.json"))
	if err := os.WriteFile(filepath.Join(dir, stateFileName), fixture, 0o600); err != nil {
		t.Fatal(err)
	}
	s := mustNew(t, dir)
	got := s.stream.Snapshot()
	kill(s)
	var file persistedState
	if err := json.Unmarshal(fixture, &file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, file.Subscriptions) {
		t.Errorf("restored subscriptions = %+v, want %+v", got, file.Subscriptions)
	}
	if !bytes.Equal(mustRead(t, filepath.Join(dir, stateFileName)), fixture) {
		t.Error("open and kill changed the state file")
	}
}

// durable is a subscription's identity and cursor: what replay must
// restore exactly. next is left out, since publishes move it without a
// frame.
func durable(subs []stream.SubscriptionState) []stream.SubscriptionState {
	out := make([]stream.SubscriptionState, len(subs))
	for i, st := range subs {
		st.Next = 0
		out[i] = st
	}
	return out
}

// durableJSON is a state's JSON with each subscription cut to what
// replay must restore exactly (see durable).
func durableJSON(t *testing.T, st *persistedState) string {
	t.Helper()
	cp := *st
	cp.Subscriptions = durable(st.Subscriptions)
	data, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestCursorReplayIsIdempotent: after a random run of subscribes,
// publishes, acks, polls and unsubscribes mixed with rule and place
// changes, key rotations, group assignments and registrations, retries
// that append nothing and mutations whose append fails, the log
// replayed over a state file snapshot taken at any point since it was
// last emptied gives the final users, policies, groups, subscriptions
// and cursors, and no next beyond the final one.
func TestCursorReplayIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	s := newService(t, Options{Dir: dir})
	rng := rand.New(rand.NewSource(1))
	consumers := []string{"bob", "carol", "dave"}
	channelSets := [][]string{nil, {"ECG"}, {"ECG", "Respiration"}}
	ruleSets := []string{`[]`, `[{"Action":"Allow"}]`, `[{"Group":["Study"],"Sensor":["ECG"],"Action":"Allow"}]`}
	rect, _ := geo.NewRect(geo.Point{Lat: 34.05, Lon: -118.46}, geo.Point{Lat: 34.08, Lon: -118.43})
	snapshot := func() *persistedState {
		st, err := s.snapshotState()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	snaps := []*persistedState{snapshot()}
	alice, err := s.RegisterContributor("alice")
	if err != nil {
		t.Fatal(err)
	}
	keys := make(map[string]auth.APIKey)
	for _, c := range consumers {
		u, err := s.RegisterConsumer(c)
		if err != nil {
			t.Fatal(err)
		}
		keys[c] = u.Key
	}
	snaps = append(snaps, snapshot())
	groupSets := [][]string{nil, {"Study"}, {"Study", "Cohort"}}
	var assigned func() error // the last group assignment made
	// control returns a control mutation, its arguments drawn now.
	control := func(i int) func() error {
		c := consumers[rng.Intn(len(consumers))]
		switch rng.Intn(5) {
		case 0:
			rs := ruleSets[rng.Intn(len(ruleSets))]
			return func() error { return s.SetRules(alice.Key, []byte(rs)) }
		case 1:
			label := fmt.Sprintf("place%d", rng.Intn(3))
			return func() error { return s.DefinePlace(alice.Key, label, geo.Region{Rect: rect}) }
		case 2:
			return func() error {
				fresh, err := s.RotateKey(keys[c])
				if err == nil {
					keys[c] = fresh
				}
				return err
			}
		case 3:
			groups := groupSets[rng.Intn(len(groupSets))]
			var assign func() error
			assign = func() error {
				err := s.AssignConsumerGroups(alice.Key, c, groups)
				if err == nil {
					assigned = assign
				}
				return err
			}
			return assign
		default:
			return func() error {
				_, err := s.RegisterConsumer(fmt.Sprintf("extra%d", i))
				return err
			}
		}
	}
	for i := 0; i < 400; i++ {
		live := s.stream.Snapshot()
		var err error
		switch op := rng.Intn(16); {
		case op < 2:
			_, err = s.stream.Subscribe(consumers[rng.Intn(len(consumers))], "alice", channelSets[rng.Intn(len(channelSets))])
		case op < 5:
			s.stream.Publish("alice", packet("alice", t0, 4))
		case op < 9 && len(live) > 0:
			st := live[rng.Intn(len(live))]
			cur := strconv.FormatUint(st.Acked+uint64(rng.Intn(4)), 10)
			if op == 8 {
				_, err = s.stream.Next(st.Consumer, st.ID, cur, 0)
			} else {
				err = s.stream.Ack(st.Consumer, st.ID, cur)
			}
		case op == 9 && len(live) > 1: // the last one stays, so there is a cursor to check
			st := live[rng.Intn(len(live))]
			err = s.stream.Unsubscribe(st.Consumer, st.ID)
		case op < 14:
			err = control(i)()
		case op == 14: // retries that find their change made
			frames := metricCursorLogFrames.Value()
			if assigned != nil {
				err = assigned()
			}
			if _, dup := s.RegisterConsumer(consumers[rng.Intn(len(consumers))]); !errors.Is(dup, auth.ErrDuplicateUser) {
				t.Fatalf("op %d: a taken consumer name registered: %v", i, dup)
			}
			if metricCursorLogFrames.Value() != frames {
				t.Fatalf("op %d: a retry appended a frame", i)
			}
		case op == 15: // a failed append changes nothing
			s.logMu.Lock()
			open := s.log
			s.log = new(walframe.Log) // closed
			s.logMu.Unlock()
			failed := control(i)()
			s.logMu.Lock()
			s.log = open
			s.logMu.Unlock()
			if failed != nil && !errors.Is(failed, os.ErrClosed) {
				t.Fatalf("op %d against a closed log: %v", i, failed)
			}
			if got := snapshot(); !reflect.DeepEqual(got, snaps[len(snaps)-1]) {
				t.Fatalf("op %d: a failed append changed the state:\n got %+v\nwant %+v", i, got, snaps[len(snaps)-1])
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, snapshot())
	}
	final := snapshot()
	want := durableJSON(t, final)
	logged := mustRead(t, filepath.Join(dir, cursorLogName))
	for k, snap := range snaps {
		if err := replayLog(snap, logged); err != nil {
			t.Fatal(err)
		}
		if got := durableJSON(t, snap); got != want {
			t.Fatalf("replay over snapshot %d =\n%s\nwant\n%s", k, got, want)
		}
		for i, sub := range snap.Subscriptions {
			if sub.Next > final.Subscriptions[i].Next {
				t.Fatalf("replay over snapshot %d: %s next %d, past the final %d", k, sub.ID, sub.Next, final.Subscriptions[i].Next)
			}
		}
	}
}

// logOf frames records as the store appends them.
func logOf(t testing.TB, recs ...logRecord) []byte {
	t.Helper()
	var out []byte
	for _, rec := range recs {
		body, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		out = walframe.Append(out, body)
	}
	return out
}

func put(id string, acked, next uint64) logRecord {
	return logRecord{SubscriptionState: &stream.SubscriptionState{ID: id, Consumer: "bob", Contributor: "alice", Acked: acked, Next: next}}
}

func removed(id string) logRecord {
	return logRecord{SubscriptionState: &stream.SubscriptionState{ID: id}, Removed: true}
}

// replaySubs replays a log over a snapshot holding only subscriptions.
func replaySubs(snap []stream.SubscriptionState, data []byte) ([]stream.SubscriptionState, error) {
	st := persistedState{Subscriptions: snap}
	err := replayLog(&st, data)
	return st.Subscriptions, err
}

// TestCursorReplayMergesByMax: frames that landed out of order, or that
// a newer snapshot already holds, move no cursor back, and a removal in
// the log keeps a subscription removed.
func TestCursorReplayMergesByMax(t *testing.T) {
	newer := []stream.SubscriptionState{*put("a", 9, 12).SubscriptionState}
	got, err := replaySubs(newer, logOf(t, put("a", 5, 6), put("b", 4, 8), put("b", 3, 9), put("c", 1, 1), removed("c")))
	if err != nil {
		t.Fatal(err)
	}
	want := []stream.SubscriptionState{*put("a", 9, 12).SubscriptionState, *put("b", 4, 9).SubscriptionState}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("replay = %+v, want %+v", got, want)
	}
}

// FuzzCursorLog treats a store's log as untrusted input: replay must
// never panic, a log it accepts must replay over its own result to the
// same state, and every policy in that state must compile, so an open
// never loads half a policy.
func FuzzCursorLog(f *testing.F) {
	valid := logOf(f, put("a", 1, 2), put("b", 0, 3), put("a", 3, 3), removed("b"), put("b", 7, 7))
	corrupt := bytes.Clone(valid)
	corrupt[walframe.HeaderLen+1] ^= 0xFF
	f.Add(valid)
	f.Add(valid[:len(valid)-4])
	f.Add(corrupt)
	f.Add(logOf(f, removed("a"), put("a", 2, 1)))
	f.Add(walframe.Append(nil, []byte(`{"id":"x","channels":["ECG",""],"acked":18446744073709551615}`)))
	f.Add(walframe.Append(nil, []byte(`{}`)))
	f.Add([]byte{})
	alice := persistedUser{Name: "alice", Role: "contributor", Key: "k-alice"}
	policy := &contributorRecord{Name: "alice", persistedContributor: persistedContributor{
		State:  ruleindex.State{Rules: json.RawMessage(`[{"Group":["Study"],"Action":"Allow"}]`), RuleVersion: 3},
		Groups: map[string][]string{"bob": {"Study"}},
	}}
	f.Add(logOf(f,
		logRecord{User: &alice, Policy: &contributorRecord{Name: "alice"}},
		logRecord{User: &persistedUser{Name: "Bob", Role: "consumer", Key: "k1"}},
		put("a", 1, 2),
		logRecord{Policy: policy},
		logRecord{User: &persistedUser{Name: "bob", Role: "consumer", Key: "k2"}},
		put("a", 2, 2)))
	// One frame of each control kind, as the mutation builds it.
	for _, m := range controlMutations {
		dir := f.TempDir()
		s, err := New(Options{Dir: dir})
		if err != nil {
			f.Fatal(err)
		}
		alice, bob := setupAliceBob(f, s)
		seeded := s.log.Len()
		if err := m.mutate(s, alice, bob); err != nil {
			f.Fatalf("%s: %v", m.name, err)
		}
		kill(s)
		f.Add(mustRead(f, filepath.Join(dir, cursorLogName))[seeded:])
	}
	f.Add(walframe.Append(nil, []byte(`{"policy":{"name":"alice","rules":[{"Action":"Sometimes"}],"ruleVersion":2}}`)))
	f.Add(walframe.Append(nil, []byte(`{"policy":{"name":"alice","rules":[{"Action":"Allow"},{"Sensor":"ECG"}]}}`)))
	f.Add(walframe.Append(nil, []byte(`{"policy":{"rules":[]},"user":{"name":"","key":""}}`)))
	f.Fuzz(func(t *testing.T, data []byte) {
		var once persistedState
		if err := replayLog(&once, data); err != nil {
			return
		}
		for name, pc := range once.Contributors {
			if _, err := ruleindex.Load(pc.State); err != nil {
				t.Fatalf("replay accepted a policy for %s that does not compile: %v", name, err)
			}
		}
		var twice persistedState
		if err := replayLog(&twice, data); err != nil {
			t.Fatalf("replay failed on a log it accepted: %v", err)
		}
		if err := replayLog(&twice, data); err != nil {
			t.Fatalf("replay over its own result failed: %v", err)
		}
		if !reflect.DeepEqual(once, twice) {
			t.Fatalf("replay is not idempotent:\n once %+v\ntwice %+v", once, twice)
		}
	})
}

// TestControlMutationsAppendFramesNotStateWrites: each kind of control
// mutation appends one frame to the log and rewrites no state file, a
// rule or place change with a sync target included.
func TestControlMutationsAppendFramesNotStateWrites(t *testing.T) {
	s := newService(t, Options{Dir: t.TempDir(), Sync: &recordingSync{}})
	frames, writes := metricCursorLogFrames.Value(), metricStateWrites.Value()
	alice, bob := setupAliceBob(t, s)
	if _, err := s.RotateKey(bob.Key); err != nil {
		t.Fatal(err)
	}
	if err := s.SetRules(alice.Key, []byte(`[{"Action":"Allow"}]`)); err != nil {
		t.Fatal(err)
	}
	rect, _ := geo.NewRect(geo.Point{Lat: 34.05, Lon: -118.46}, geo.Point{Lat: 34.08, Lon: -118.43})
	if err := s.DefinePlace(alice.Key, "UCLA", geo.Region{Rect: rect}); err != nil {
		t.Fatal(err)
	}
	if err := s.AssignConsumerGroups(alice.Key, "Bob", []string{"Study"}); err != nil {
		t.Fatal(err)
	}
	if got := metricCursorLogFrames.Value() - frames; got != 6 {
		t.Errorf("6 control mutations appended %v frames, want 6", got)
	}
	if got := metricStateWrites.Value() - writes; got != 0 {
		t.Errorf("6 control mutations rewrote the state file %v times, want 0", got)
	}
}

// controlMutations are the store's control mutation kinds, one call
// each on a store setupAliceBob filled.
var controlMutations = []struct {
	name   string
	mutate func(s *Service, alice, bob auth.User) error
}{
	{"RegisterContributor", func(s *Service, _, _ auth.User) error {
		_, err := s.RegisterContributor("carol")
		return err
	}},
	{"RegisterConsumer", func(s *Service, _, _ auth.User) error {
		_, err := s.RegisterConsumer("dave")
		return err
	}},
	{"RotateKey", func(s *Service, _, bob auth.User) error {
		_, err := s.RotateKey(bob.Key)
		return err
	}},
	{"SetRules", func(s *Service, alice, _ auth.User) error { return s.SetRules(alice.Key, []byte(`[]`)) }},
	{"DefinePlace", func(s *Service, alice, _ auth.User) error {
		rect, _ := geo.NewRect(geo.Point{Lat: 34.05, Lon: -118.46}, geo.Point{Lat: 34.08, Lon: -118.43})
		return s.DefinePlace(alice.Key, "UCLA", geo.Region{Rect: rect})
	}},
	{"AssignConsumerGroups", func(s *Service, alice, _ auth.User) error {
		return s.AssignConsumerGroups(alice.Key, "Bob", []string{"Study"})
	}},
}

// TestFailedAppendChangesNothing: a control mutation whose append fails,
// here because the store is closed, errors and leaves the state as it
// was, for every kind: Bob's old key still authenticates and the rules
// before the failed change still decide his deliveries.
func TestFailedAppendChangesNothing(t *testing.T) {
	for _, m := range controlMutations {
		t.Run(m.name, func(t *testing.T) {
			s := mustNew(t, t.TempDir())
			alice, bob := setupAliceBob(t, s)
			if err := s.SetRules(alice.Key, []byte(`[{"Action":"Allow"}]`)); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			before, err := s.snapshotState()
			if err != nil {
				t.Fatal(err)
			}
			if err := m.mutate(s, alice, bob); !errors.Is(err, os.ErrClosed) {
				t.Errorf("the mutation returned %v, want %v", err, os.ErrClosed)
			}
			after, err := s.snapshotState()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(after, before) {
				t.Errorf("state after a failed append:\n got %+v\nwant %+v", after, before)
			}
			if _, err := s.authenticate(bob.Key, auth.RoleConsumer); err != nil {
				t.Errorf("Bob's key after a failed mutation: %v", err)
			}
			if rels, _, _, err := s.StreamRelease("Bob", nil, packet("alice", t0, 4)); err != nil || len(rels) == 0 {
				t.Errorf("Bob's delivery after a failed mutation released %d, %v; want the allow rule's release", len(rels), err)
			}
		})
	}
}

// TestIdempotentRetriesAppendNoFrame: a retried group assignment that
// finds the groups already set, and a registration of a name already
// taken, append no frame; a rule change always does, at its next version.
func TestIdempotentRetriesAppendNoFrame(t *testing.T) {
	s := mustNew(t, t.TempDir())
	defer kill(s)
	alice, _ := setupAliceBob(t, s)
	frames := func() float64 { return metricCursorLogFrames.Value() }
	start := frames()
	for i := 0; i < 2; i++ {
		if err := s.AssignConsumerGroups(alice.Key, "bob", []string{"Study"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.RegisterConsumer("BOB"); !errors.Is(err, auth.ErrDuplicateUser) {
		t.Errorf("a second Bob: %v, want %v", err, auth.ErrDuplicateUser)
	}
	if _, err := s.RegisterContributor("Alice"); !errors.Is(err, auth.ErrDuplicateUser) {
		t.Errorf("a second alice: %v, want %v", err, auth.ErrDuplicateUser)
	}
	if got := frames() - start; got != 1 {
		t.Errorf("an assignment, its retry and two taken names appended %v frames, want 1", got)
	}
	for i := 0; i < 2; i++ {
		if err := s.SetRules(alice.Key, []byte(`[]`)); err != nil {
			t.Fatal(err)
		}
	}
	if got := frames() - start; got != 3 {
		t.Errorf("after two equal rule sets the log holds %v new frames, want 3", got)
	}
}

// decisions returns a contributor's rule version and what its policy
// decides for policyProbes.
func decisions(t *testing.T, s *Service, contributor string) (uint64, []string) {
	t.Helper()
	d, version, err := s.StreamEngine(contributor)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, req := range policyProbes() {
		got := d.Decide(req)
		got.Cached = false
		data, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(data))
	}
	return version, out
}

// TestCrashAfterPolicyChangeRestoresIt: killed after DefinePlace and
// SetRules, a store reopens at the same rule version, and the restored
// policy decides every probe as the live one did.
func TestCrashAfterPolicyChangeRestoresIt(t *testing.T) {
	dir := t.TempDir()
	s := mustNew(t, dir)
	alice, _ := setupAliceBob(t, s)
	rect, _ := geo.NewRect(geo.Point{Lat: 34.05, Lon: -118.46}, geo.Point{Lat: 34.08, Lon: -118.43})
	if err := s.DefinePlace(alice.Key, "UCLA", geo.Region{Rect: rect}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetRules(alice.Key, []byte(`[{"Group":["Study"],"LocationLabel":["UCLA"],"Action":"Allow"},
		{"Consumer":["Bob"],"Action":{"Abstraction":{"Location":"City"}}}]`)); err != nil {
		t.Fatal(err)
	}
	version, want := decisions(t, s, "alice")
	kill(s)
	s = mustNew(t, dir)
	defer kill(s)
	if v, got := decisions(t, s, "alice"); v != version || !reflect.DeepEqual(got, want) {
		t.Errorf("after the crash: version %d, decisions %v; want version %d, %v", v, got, version, want)
	}
}

// TestCrashAfterRotateKey: killed after a key rotation, a store rejects
// the old key and accepts the new one.
func TestCrashAfterRotateKey(t *testing.T) {
	dir := t.TempDir()
	s := mustNew(t, dir)
	_, bob := setupAliceBob(t, s)
	fresh, err := s.RotateKey(bob.Key)
	if err != nil {
		t.Fatal(err)
	}
	kill(s)
	s = mustNew(t, dir)
	defer kill(s)
	if _, err := s.authenticate(bob.Key, auth.RoleConsumer); err == nil {
		t.Error("the rotated-out key authenticates after the crash")
	}
	if _, err := s.authenticate(fresh, auth.RoleConsumer); err != nil {
		t.Errorf("the new key after the crash: %v", err)
	}
}

// TestCrashAfterAssignGroups: killed after a group assignment, a store
// restores it.
func TestCrashAfterAssignGroups(t *testing.T) {
	dir := t.TempDir()
	s := mustNew(t, dir)
	alice, _ := setupAliceBob(t, s)
	if err := s.AssignConsumerGroups(alice.Key, "Bob", []string{"Study", "Cohort-2"}); err != nil {
		t.Fatal(err)
	}
	kill(s)
	s = mustNew(t, dir)
	defer kill(s)
	if got := s.contributors["alice"].Groups["bob"]; !reflect.DeepEqual(got, []string{"Study", "Cohort-2"}) {
		t.Errorf("Bob's groups after the crash = %v, want [Study Cohort-2]", got)
	}
}

// TestCrashAfterRegisterContributor: killed after a contributor's
// registration, a store restores both the account and its empty policy.
func TestCrashAfterRegisterContributor(t *testing.T) {
	dir := t.TempDir()
	s := mustNew(t, dir)
	alice, err := s.RegisterContributor("alice")
	if err != nil {
		t.Fatal(err)
	}
	kill(s)
	s = mustNew(t, dir)
	defer kill(s)
	policy, err := s.Policy(alice.Key)
	if err != nil {
		t.Fatalf("alice after the crash: %v", err)
	}
	if !reflect.DeepEqual(policy, ruleindex.State{Places: []geo.Region{}}) {
		t.Errorf("alice's policy after the crash = %+v, want the empty one", policy)
	}
}

// TestCrashTornFinalPolicyFrame: a policy frame the crash cut short is
// an append that never returned; the store reopens at the policy before
// it.
func TestCrashTornFinalPolicyFrame(t *testing.T) {
	dir := t.TempDir()
	s := mustNew(t, dir)
	alice, _ := setupAliceBob(t, s)
	if err := s.SetRules(alice.Key, []byte(`[{"Action":"Allow"}]`)); err != nil {
		t.Fatal(err)
	}
	version, want := decisions(t, s, "alice")
	if err := s.SetRules(alice.Key, []byte(`[{"Action":"Deny"}]`)); err != nil {
		t.Fatal(err)
	}
	kill(s)
	path := filepath.Join(dir, cursorLogName)
	data := mustRead(t, path)
	if err := os.WriteFile(path, data[:len(data)-5], 0o600); err != nil {
		t.Fatal(err)
	}
	s = mustNew(t, dir)
	defer kill(s)
	if v, got := decisions(t, s, "alice"); v != version || !reflect.DeepEqual(got, want) {
		t.Errorf("after a torn policy frame: version %d, decisions %v; want version %d, %v", v, got, version, want)
	}
}

// TestCrashMalformedPolicyFrameFailsOpen: a whole policy frame whose
// rules do not compile is corruption, wherever it lies in the log: the
// open fails and leaves the log as it was, rather than load a policy
// the store never held.
func TestCrashMalformedPolicyFrameFailsOpen(t *testing.T) {
	bad := walframe.Append(nil, []byte(`{"policy":{"name":"alice","rules":[{"Action":"Sometimes"}],"ruleVersion":2}}`))
	for name, after := range map[string][]byte{
		"final": nil,
		"inner": logOf(t, logRecord{User: &persistedUser{Name: "carol", Role: "consumer", Key: "k-carol"}}),
		"overwritten": logOf(t, logRecord{Policy: &contributorRecord{Name: "alice", persistedContributor: persistedContributor{
			State: ruleindex.State{Rules: json.RawMessage(`[{"Action":"Allow"}]`), RuleVersion: 3}}}}),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s := mustNew(t, dir)
			alice, _ := setupAliceBob(t, s)
			if err := s.SetRules(alice.Key, []byte(`[{"Action":"Allow"}]`)); err != nil {
				t.Fatal(err)
			}
			kill(s)
			path := filepath.Join(dir, cursorLogName)
			data := append(append(mustRead(t, path), bad...), after...)
			if err := os.WriteFile(path, data, 0o600); err != nil {
				t.Fatal(err)
			}
			if s, err := New(Options{Dir: dir}); err == nil {
				kill(s)
				t.Fatal("a policy frame with malformed rules opened without error")
			}
			if got := mustRead(t, path); !bytes.Equal(got, data) {
				t.Error("a failed open changed the log")
			}
		})
	}
}
