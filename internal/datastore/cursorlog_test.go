package datastore

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"sensorsafe/internal/auth"
	"sensorsafe/internal/stream"
	"sensorsafe/internal/walframe"
)

// kill stops s the way a crash would: no fold and no last state-file
// write, so the state file and the cursor log stay as the last returned
// call left them. The segment engine closes normally; these tests are
// about the state file and the cursor log.
func kill(s *Service) {
	s.cancel()
	if s.foldDone != nil {
		<-s.foldDone
	}
	s.discardCursorLog()
	s.store.Close()
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
// fold captured past the last frame — and does not bring back a
// subscription that was unsubscribed.
func TestCrashBetweenFoldAndLogReset(t *testing.T) {
	dir := t.TempDir()
	s := mustNew(t, dir)
	bob, sub := subscribedBob(t, s, 4)
	carol, err := s.RegisterConsumer("carol")
	if err != nil {
		t.Fatal(err)
	}
	gone, err := s.Subscribe(carol.Key, "alice", nil)
	if err != nil {
		t.Fatal(err)
	}
	ackTo(t, s, bob.Key, sub.ID, 1, 3)
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
// cursorLogFoldBytes wakes the background fold, which writes the state
// file with the new cursor and empties the log.
func TestLogPastThresholdIsFolded(t *testing.T) {
	dir := t.TempDir()
	s := newService(t, Options{Dir: dir})
	bob, sub := subscribedBob(t, s, 2)
	s.logMu.Lock()
	s.logBytes = cursorLogFoldBytes - 1 // as if some ten thousand acks were logged
	s.logMu.Unlock()
	ackTo(t, s, bob.Key, sub.ID, 1, 1)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		s.logMu.Lock()
		folded := s.logBytes == 0
		s.logMu.Unlock()
		if folded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no fold after the log passed its threshold")
		}
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

// TestCursorReplayIsIdempotent: after a random run of subscribes,
// publishes, acks, polls and unsubscribes, the log replayed over a state
// file snapshot taken at any point since it was last emptied gives the
// final subscriptions and cursors, and no next beyond the final one.
func TestCursorReplayIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	s := newService(t, Options{Dir: dir})
	rng := rand.New(rand.NewSource(1))
	consumers := []string{"bob", "carol", "dave"}
	channelSets := [][]string{nil, {"ECG"}, {"ECG", "Respiration"}}
	snaps := [][]stream.SubscriptionState{s.stream.Snapshot()}
	for i := 0; i < 400; i++ {
		live := s.stream.Snapshot()
		switch op := rng.Intn(10); {
		case op < 2:
			if _, err := s.stream.Subscribe(consumers[rng.Intn(len(consumers))], "alice", channelSets[rng.Intn(len(channelSets))]); err != nil {
				t.Fatal(err)
			}
		case op < 5:
			s.stream.Publish("alice", packet("alice", t0, 4))
		case op < 9 && len(live) > 0:
			st := live[rng.Intn(len(live))]
			cur := strconv.FormatUint(st.Acked+uint64(rng.Intn(4)), 10)
			if op == 8 {
				if _, err := s.stream.Next(st.Consumer, st.ID, cur, 0); err != nil {
					t.Fatal(err)
				}
			} else if err := s.stream.Ack(st.Consumer, st.ID, cur); err != nil {
				t.Fatal(err)
			}
		case len(live) > 1: // the last one stays, so there is a cursor to check
			st := live[rng.Intn(len(live))]
			if err := s.stream.Unsubscribe(st.Consumer, st.ID); err != nil {
				t.Fatal(err)
			}
		}
		snaps = append(snaps, s.stream.Snapshot())
	}
	final := s.stream.Snapshot()
	logged := mustRead(t, filepath.Join(dir, cursorLogName))
	for k, snap := range snaps {
		got, err := replayCursorLog(snap, logged)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(durable(got), durable(final)) {
			t.Fatalf("replay over snapshot %d = %+v, want %+v", k, got, final)
		}
		for i := range got {
			if got[i].Next > final[i].Next {
				t.Fatalf("replay over snapshot %d: %s next %d, past the final %d", k, got[i].ID, got[i].Next, final[i].Next)
			}
		}
	}
}

// logOf frames cursor records as the store appends them.
func logOf(t testing.TB, recs ...cursorRecord) []byte {
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

func put(id string, acked, next uint64) cursorRecord {
	return cursorRecord{SubscriptionState: stream.SubscriptionState{ID: id, Consumer: "bob", Contributor: "alice", Acked: acked, Next: next}}
}

func removed(id string) cursorRecord {
	return cursorRecord{SubscriptionState: stream.SubscriptionState{ID: id}, Removed: true}
}

// TestCursorReplayMergesByMax: frames that landed out of order, or that
// a newer snapshot already holds, move no cursor back, and a removal in
// the log keeps a subscription removed.
func TestCursorReplayMergesByMax(t *testing.T) {
	newer := []stream.SubscriptionState{put("a", 9, 12).SubscriptionState}
	got, err := replayCursorLog(newer, logOf(t, put("a", 5, 6), put("b", 4, 8), put("b", 3, 9), put("c", 1, 1), removed("c")))
	if err != nil {
		t.Fatal(err)
	}
	want := []stream.SubscriptionState{put("a", 9, 12).SubscriptionState, put("b", 4, 9).SubscriptionState}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("replay = %+v, want %+v", got, want)
	}
}

// FuzzCursorLog treats a cursor log as untrusted input: replay must never
// panic, and a log it accepts must replay over its own result to the
// same state.
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
	f.Fuzz(func(t *testing.T, data []byte) {
		once, err := replayCursorLog(nil, data)
		if err != nil {
			return
		}
		twice, err := replayCursorLog(once, data)
		if err != nil {
			t.Fatalf("replay over its own result failed: %v", err)
		}
		if !reflect.DeepEqual(once, twice) {
			t.Fatalf("replay is not idempotent:\n once %+v\ntwice %+v", once, twice)
		}
	})
}
