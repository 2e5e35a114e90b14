package stream

import (
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"sensorsafe/internal/abstraction"
	"sensorsafe/internal/audit"
	"sensorsafe/internal/geo"
	"sensorsafe/internal/wavesegment"
)

var t0 = time.Date(2026, 8, 5, 9, 0, 0, 0, time.UTC)

// fakeRules is a RuleSource for hub-level tests: it releases every
// segment whole under rule version 1. Rule semantics are tested against
// the real release path in internal/datastore.
type fakeRules struct{}

func (fakeRules) StreamRelease(_ string, _ []string, seg *wavesegment.Segment) ([]*abstraction.Release, uint64, audit.Outcome, error) {
	return []*abstraction.Release{{Contributor: seg.Contributor, Segment: seg}}, 1, audit.OutcomeRaw, nil
}

// seg builds an n-sample ECG segment starting at start.
func seg(start time.Time, n int) *wavesegment.Segment {
	s := &wavesegment.Segment{
		Contributor: "alice",
		Start:       start,
		Interval:    100 * time.Millisecond,
		Location:    geo.Point{Lat: 34.0, Lon: -118.0},
		Channels:    []string{"ECG"},
	}
	for i := 0; i < n; i++ {
		s.Values = append(s.Values, []float64{float64(i)})
	}
	return s
}

func newHub(src RuleSource, buffer int) *Hub {
	return New(Options{Rules: src, BufferSegments: buffer})
}

func TestSubscribePublishNext(t *testing.T) {
	h := newHub(fakeRules{}, 0)
	info, err := h.Subscribe("Bob", "Alice", nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Cursor != "0" || info.Resumed {
		t.Fatalf("fresh subscription info = %+v", info)
	}

	h.Publish("alice", seg(t0, 8))
	b, err := h.Next("bob", info.ID, info.Cursor, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Events) != 1 || b.Events[0].Kind != KindData {
		t.Fatalf("events = %+v", b.Events)
	}
	ev := b.Events[0]
	if ev.Seq != 1 || ev.Cursor != "1" || b.Cursor != "1" {
		t.Fatalf("cursor bookkeeping wrong: %+v batch cursor %s", ev, b.Cursor)
	}
	if len(ev.Releases) == 0 || ev.Releases[0].Segment == nil ||
		ev.Releases[0].Segment.NumSamples() != 8 {
		t.Fatalf("releases = %+v", ev.Releases)
	}
	if ev.RuleVersion != 1 {
		t.Fatalf("rule version = %d", ev.RuleVersion)
	}

	// Acked everything: an immediate poll returns an empty batch.
	b2, err := h.Next("bob", info.ID, b.Cursor, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(b2.Events) != 0 || b2.Cursor != "1" {
		t.Fatalf("expected empty batch at cursor 1, got %+v", b2)
	}
}

func TestNextWakesOnPublish(t *testing.T) {
	h := newHub(fakeRules{}, 0)
	info, _ := h.Subscribe("bob", "alice", nil)
	go func() {
		time.Sleep(20 * time.Millisecond)
		h.Publish("alice", seg(t0, 4))
	}()
	start := time.Now()
	b, err := h.Next("bob", info.ID, "", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Events) != 1 {
		t.Fatalf("events = %+v", b.Events)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("poll did not wake on publish (took %v)", waited)
	}
}

func TestCursorResumeNoLossNoDuplication(t *testing.T) {
	h := newHub(fakeRules{}, 0)
	info, _ := h.Subscribe("bob", "alice", nil)
	for i := 0; i < 3; i++ {
		h.Publish("alice", seg(t0.Add(time.Duration(i)*time.Second), 4))
	}
	b, err := h.Next("bob", info.ID, "", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Events) != 3 {
		t.Fatalf("want 3 events, got %+v", b.Events)
	}

	// The consumer acks only the first two (crash before processing the
	// third), then "reconnects": Subscribe with the same tuple resumes.
	if err := h.Ack("bob", info.ID, "2"); err != nil {
		t.Fatal(err)
	}
	again, err := h.Subscribe("bob", "alice", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Resumed || again.ID != info.ID || again.Cursor != "2" {
		t.Fatalf("resume info = %+v", again)
	}
	b2, err := h.Next("bob", again.ID, again.Cursor, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(b2.Events) != 1 || b2.Events[0].Seq != 3 {
		t.Fatalf("resume replayed wrong events: %+v", b2.Events)
	}
}

func TestDistinctChannelTuplesAreDistinctSubscriptions(t *testing.T) {
	h := newHub(fakeRules{}, 0)
	a, _ := h.Subscribe("bob", "alice", nil)
	b, _ := h.Subscribe("bob", "alice", []string{"ECG"})
	if a.ID == b.ID {
		t.Fatal("different channel tuples mapped to one subscription")
	}
	c, _ := h.Subscribe("bob", "alice", []string{"ecg"})
	if c.ID != b.ID {
		t.Fatal("channel key not case/order normalized")
	}
	if h.Subscribers() != 2 {
		t.Fatalf("subscribers = %d", h.Subscribers())
	}
}

func TestOverflowDropsOldestAndSurfacesGap(t *testing.T) {
	h := newHub(fakeRules{}, 4)
	info, _ := h.Subscribe("bob", "alice", nil)
	for i := 0; i < 10; i++ {
		h.Publish("alice", seg(t0.Add(time.Duration(i)*time.Second), 2))
	}
	b, err := h.Next("bob", info.ID, "", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Events) != 5 {
		t.Fatalf("want gap + 4 data events, got %d: %+v", len(b.Events), b.Events)
	}
	gap := b.Events[0]
	if gap.Kind != KindGap || gap.Dropped != 6 || gap.Cursor != "6" {
		t.Fatalf("gap = %+v", gap)
	}
	for i, ev := range b.Events[1:] {
		if ev.Kind != KindData || ev.Seq != uint64(7+i) {
			t.Fatalf("event %d = %+v", i, ev)
		}
	}
	// Acking past the gap restores contiguity and clears lagging.
	if err := h.Ack("bob", info.ID, b.Cursor); err != nil {
		t.Fatal(err)
	}
	again, _ := h.Subscribe("bob", "alice", nil)
	if again.Lagging {
		t.Fatal("lagging flag not cleared after the gap was consumed")
	}
}

// revocable is a RuleSource that releases whole segments under version 1
// until revoke, then withholds everything under version 2.
type revocable struct {
	mu      sync.Mutex
	revoked bool
}

func (r *revocable) StreamRelease(consumer string, channels []string, seg *wavesegment.Segment) ([]*abstraction.Release, uint64, audit.Outcome, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.revoked {
		return nil, 2, audit.OutcomeWithheld, nil
	}
	return fakeRules{}.StreamRelease(consumer, channels, seg)
}

func (r *revocable) revoke() {
	r.mu.Lock()
	r.revoked = true
	r.mu.Unlock()
}

// TestRuleFlipRefiltersBufferedSegments checks that the hub decides at
// delivery time, not at publish time: segments buffered before a
// revocation are withheld, and the cursor still moves past them.
func TestRuleFlipRefiltersBufferedSegments(t *testing.T) {
	src := &revocable{}
	h := newHub(src, 0)
	info, _ := h.Subscribe("bob", "alice", nil)

	h.Publish("alice", seg(t0, 4))
	b, _ := h.Next("bob", info.ID, "", time.Second)
	if len(b.Events) != 1 || b.Events[0].RuleVersion != 1 || b.Events[0].Releases[0].Segment == nil {
		t.Fatalf("pre-flip delivery = %+v", b.Events)
	}

	// Two more segments land in the buffer, then the contributor revokes.
	h.Publish("alice", seg(t0.Add(time.Second), 4))
	h.Publish("alice", seg(t0.Add(2*time.Second), 4))
	src.revoke()

	b2, err := h.Next("bob", info.ID, b.Cursor, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(b2.Events) != 0 {
		t.Fatalf("buffered segments leaked after revocation: %+v", b2.Events)
	}
	if b2.Cursor != "3" {
		t.Fatalf("cursor must advance past suppressed segments, got %s", b2.Cursor)
	}
}

func TestUnsubscribeAndBye(t *testing.T) {
	h := newHub(fakeRules{}, 0)
	info, _ := h.Subscribe("bob", "alice", nil)
	if err := h.Unsubscribe("eve", info.ID); err != ErrNotOwner {
		t.Fatalf("foreign unsubscribe: %v", err)
	}
	if err := h.Unsubscribe("bob", info.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Next("bob", info.ID, "", 10*time.Millisecond); err == nil {
		t.Fatal("poll on a revoked subscription should fail")
	}
	if h.Subscribers() != 0 {
		t.Fatalf("subscribers = %d", h.Subscribers())
	}
}

func TestShutdownDeliversTerminalEvent(t *testing.T) {
	h := newHub(fakeRules{}, 0)
	info, _ := h.Subscribe("bob", "alice", nil)
	done := make(chan Batch, 1)
	go func() {
		b, _ := h.Next("bob", info.ID, "", 10*time.Second)
		done <- b
	}()
	time.Sleep(20 * time.Millisecond)
	h.Shutdown()
	select {
	case b := <-done:
		if len(b.Events) != 1 || b.Events[0].Kind != KindBye {
			t.Fatalf("terminal batch = %+v", b)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked poll never woke on shutdown")
	}
}

func TestSnapshotRestoreResumesCursorWithGap(t *testing.T) {
	h := newHub(fakeRules{}, 0)
	info, _ := h.Subscribe("bob", "alice", nil)
	for i := 0; i < 5; i++ {
		h.Publish("alice", seg(t0.Add(time.Duration(i)*time.Second), 2))
	}
	if err := h.Ack("bob", info.ID, "2"); err != nil {
		t.Fatal(err)
	}
	states := h.Snapshot()
	if len(states) != 1 || states[0].Acked != 2 || states[0].Next != 5 {
		t.Fatalf("snapshot = %+v", states)
	}

	// "Restart": a fresh hub restores the registration but not the buffer;
	// the three unacked segments surface as one gap.
	h2 := newHub(fakeRules{}, 0)
	h2.Restore(states)
	again, err := h2.Subscribe("bob", "alice", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Resumed || again.ID != info.ID || again.Cursor != "2" {
		t.Fatalf("restored info = %+v", again)
	}
	b, err := h2.Next("bob", again.ID, "", 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Events) != 1 || b.Events[0].Kind != KindGap || b.Events[0].Dropped != 3 {
		t.Fatalf("restart gap = %+v", b.Events)
	}
}

func TestOnChangeFiresOnDurableMutations(t *testing.T) {
	var mu sync.Mutex
	var calls []string
	var h *Hub
	var live []bool // what Subscription reported inside each call
	h = New(Options{Rules: fakeRules{}, OnChange: func(id string) {
		_, ok := h.Subscription(id) // no hub lock is held
		mu.Lock()
		calls = append(calls, id)
		live = append(live, ok)
		mu.Unlock()
	}})
	info, _ := h.Subscribe("bob", "alice", nil)
	h.Publish("alice", seg(t0, 2))
	if err := h.Ack("bob", info.ID, "1"); err != nil {
		t.Fatal(err)
	}
	if err := h.Ack("bob", info.ID, "1"); err != nil { // no-op: cursor unchanged
		t.Fatal(err)
	}
	if st, ok := h.Subscription(info.ID); !ok || st.Acked != 1 || st.Next != 1 || st.Consumer != "bob" || st.Contributor != "alice" {
		t.Fatalf("Subscription = %+v, %v; want bob/alice acked 1 next 1", st, ok)
	}
	if err := h.Unsubscribe("bob", info.ID); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(calls) != 3 { // subscribe + first ack + unsubscribe
		t.Fatalf("OnChange calls = %d, want 3", len(calls))
	}
	for i, id := range calls {
		if id != info.ID {
			t.Errorf("OnChange call %d got ID %q, want %q", i, id, info.ID)
		}
	}
	if want := []bool{true, true, false}; !reflect.DeepEqual(live, want) {
		t.Errorf("Subscription inside OnChange reported live = %v, want %v", live, want)
	}
}

// TestConcurrentSubscribersAgainstConcurrentIngest is the acceptance-
// criteria race test: ≥3 subscribers polling concurrently while two
// publishers ingest; every subscriber must account for every published
// segment exactly once (delivered or inside a gap), strictly in order.
func TestConcurrentSubscribersAgainstConcurrentIngest(t *testing.T) {
	const (
		subscribers = 4
		publishers  = 2
		perPub      = 150
	)
	h := newHub(fakeRules{}, 32)
	total := uint64(publishers * perPub)

	infos := make([]SubInfo, subscribers)
	for i := range infos {
		info, err := h.Subscribe("bob"+strconv.Itoa(i), "alice", nil)
		if err != nil {
			t.Fatal(err)
		}
		infos[i] = info
	}

	var wg sync.WaitGroup
	errs := make(chan error, subscribers)
	for i := range infos {
		wg.Add(1)
		go func(who int, info SubInfo) {
			defer wg.Done()
			consumer := "bob" + strconv.Itoa(who)
			var accounted, lastSeq uint64
			cursor := info.Cursor
			deadline := time.Now().Add(20 * time.Second)
			for accounted < total && time.Now().Before(deadline) {
				b, err := h.Next(consumer, info.ID, cursor, 200*time.Millisecond)
				if err != nil {
					errs <- err
					return
				}
				for _, ev := range b.Events {
					if ev.Seq <= lastSeq {
						errs <- errOutOfOrder(who, ev.Seq, lastSeq)
						return
					}
					switch ev.Kind {
					case KindData:
						accounted += ev.Seq - lastSeq // includes suppressed gaps-in-sequence (none here)
					case KindGap:
						accounted += ev.Dropped
					}
					lastSeq = ev.Seq
				}
				cursor = b.Cursor
			}
			if accounted != total {
				errs <- errShortCount(who, accounted, total)
			}
		}(i, infos[i])
	}

	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perPub; i++ {
				h.Publish("alice", seg(t0.Add(time.Duration(p*perPub+i)*time.Second), 2))
			}
		}(p)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

type streamTestError string

func (e streamTestError) Error() string { return string(e) }

func errOutOfOrder(who int, seq, last uint64) error {
	return streamTestError("subscriber " + strconv.Itoa(who) + ": seq " +
		strconv.FormatUint(seq, 10) + " after " + strconv.FormatUint(last, 10))
}

func errShortCount(who int, got, want uint64) error {
	return streamTestError("subscriber " + strconv.Itoa(who) + ": accounted " +
		strconv.FormatUint(got, 10) + "/" + strconv.FormatUint(want, 10) + " segments")
}
