package storage

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"sensorsafe/internal/geo"
	"sensorsafe/internal/wavesegment"
)

var (
	t0   = time.Date(2011, 2, 16, 10, 0, 0, 0, time.UTC)
	ucla = geo.Point{Lat: 34.0689, Lon: -118.4452}
)

func seg(contributor string, start time.Time, n int, channels ...string) *wavesegment.Segment {
	if len(channels) == 0 {
		channels = []string{wavesegment.ChannelECG}
	}
	s := &wavesegment.Segment{
		Contributor: contributor,
		Start:       start,
		Interval:    100 * time.Millisecond,
		Location:    ucla,
		Channels:    channels,
	}
	for i := 0; i < n; i++ {
		row := make([]float64, len(channels))
		for j := range row {
			row[j] = float64(i)
		}
		s.Values = append(s.Values, row)
	}
	return s
}

func memStore(t *testing.T) *Store {
	t.Helper()
	s := NewMemory(0)
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPutGetDelete(t *testing.T) {
	s := memStore(t)
	id, err := s.Put(seg("alice", t0, 10))
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if got.Contributor != "alice" || got.NumSamples() != 10 {
		t.Errorf("got %v", got)
	}
	if s.Count() != 1 {
		t.Errorf("Count = %d", s.Count())
	}
	if err := s.Delete(id); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(id); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after delete: %v", err)
	}
	if err := s.Delete(id); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete: %v", err)
	}
	if s.Count() != 0 {
		t.Errorf("Count = %d", s.Count())
	}
}

// TestPutValidatesAndClones: Put refuses what is not a segment and keeps
// the one it is handed (the caller gives it up, see wavesegment.Segment);
// Get hands out a copy.
func TestPutValidatesAndClones(t *testing.T) {
	s := memStore(t)
	if _, err := s.Put(&wavesegment.Segment{}); err == nil {
		t.Error("invalid segment should be rejected")
	}
	if _, err := s.Put(nil); err == nil {
		t.Error("nil segment should be rejected")
	}
	orig := seg("alice", t0, 5)
	id, err := s.Put(orig)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := s.Get(id)
	if !reflect.DeepEqual(got.Values, orig.Values) {
		t.Error("Get changed the stored values")
	}
	got.Values[1][0] = 888 // mutate returned copy
	again, _ := s.Get(id)
	if again.Values[1][0] == 888 {
		t.Error("store must clone on Get")
	}
}

func TestScanTimeRange(t *testing.T) {
	s := memStore(t)
	for i := 0; i < 10; i++ {
		// 10 segments of 1 s each at t0, t0+1m, t0+2m, ...
		if _, err := s.Put(seg("alice", t0.Add(time.Duration(i)*time.Minute), 10)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.ScanRefs(Query{From: t0.Add(2 * time.Minute), To: t0.Add(5 * time.Minute)})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("scan returned %d segments, want 3", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Segment.StartTime().Before(got[i-1].Segment.StartTime()) {
			t.Error("results not ordered by start")
		}
	}
	// Half-open semantics: a segment starting exactly at To is excluded; one
	// ending exactly at From is excluded.
	got, _ = s.ScanRefs(Query{From: t0.Add(time.Second), To: t0.Add(time.Minute)})
	if len(got) != 0 {
		t.Errorf("boundary scan = %d segments, want 0", len(got))
	}
	// Overlap: window inside a segment matches it.
	got, _ = s.ScanRefs(Query{From: t0.Add(200 * time.Millisecond), To: t0.Add(300 * time.Millisecond)})
	if len(got) != 1 {
		t.Errorf("interior scan = %d segments, want 1", len(got))
	}
}

func TestScanFilters(t *testing.T) {
	s := memStore(t)
	mustPut := func(x *wavesegment.Segment) {
		t.Helper()
		if _, err := s.Put(x); err != nil {
			t.Fatal(err)
		}
	}
	mustPut(seg("alice", t0, 10, wavesegment.ChannelECG))
	mustPut(seg("bob", t0.Add(time.Minute), 10, wavesegment.ChannelAccelX))
	far := seg("alice", t0.Add(2*time.Minute), 10, wavesegment.ChannelECG)
	far.Location = geo.Point{Lat: 48.85, Lon: 2.35}
	mustPut(far)

	got, _ := s.ScanRefs(Query{Contributor: "alice"})
	if len(got) != 2 {
		t.Errorf("contributor filter: %d, want 2", len(got))
	}
	got, _ = s.ScanRefs(Query{Channels: []string{wavesegment.ChannelAccelX, wavesegment.ChannelAccelY}})
	if len(got) != 1 || got[0].Segment.Contributor != "bob" {
		t.Errorf("channel filter: %v", got)
	}
	rect, _ := geo.NewRect(geo.Point{Lat: 34, Lon: -119}, geo.Point{Lat: 35, Lon: -118})
	got, _ = s.ScanRefs(Query{Region: rect})
	if len(got) != 2 {
		t.Errorf("region filter: %d, want 2", len(got))
	}
	got, _ = s.ScanRefs(Query{Limit: 1})
	if len(got) != 1 {
		t.Errorf("limit: %d, want 1", len(got))
	}
	got, _ = s.ScanRefs(Query{})
	if len(got) != 3 {
		t.Errorf("match-all: %d, want 3", len(got))
	}
}

func TestScanRefsSharesRecords(t *testing.T) {
	s := memStore(t)
	if _, err := s.Put(seg("alice", t0, 5)); err != nil {
		t.Fatal(err)
	}
	a, err := s.ScanRefs(Query{})
	if err != nil || len(a) != 1 {
		t.Fatalf("ScanRefs: %v, %v", a, err)
	}
	b, _ := s.ScanRefs(Query{})
	if a[0].Segment != b[0].Segment {
		t.Error("ScanRefs should return the same record pointer")
	}
}

func TestClosedStoreErrors(t *testing.T) {
	s := NewMemory(0)
	s.Close()
	if _, err := s.Put(seg("a", t0, 1)); !errors.Is(err, ErrClosed) {
		t.Errorf("Put on closed: %v", err)
	}
	if _, err := s.Get(1); !errors.Is(err, ErrClosed) {
		t.Errorf("Get on closed: %v", err)
	}
	if err := s.Delete(1); !errors.Is(err, ErrClosed) {
		t.Errorf("Delete on closed: %v", err)
	}
	if _, err := s.ScanRefs(Query{}); !errors.Is(err, ErrClosed) {
		t.Errorf("Scan on closed: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := memStore(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				// A 1 s gap after each 1 s segment keeps every put its own record.
				id, err := s.Put(seg("alice", t0.Add(time.Duration(w*1000+2*i)*time.Second), 10))
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Get(id); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.ScanRefs(Query{Limit: 5}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Count() != 400 {
		t.Errorf("Count = %d, want 400", s.Count())
	}
}

// TestPutExtendsStreamTail: a put that continues its stream's newest
// record joins it under the same ID without touching the segment a reader
// already holds, and a late packet does not displace that record; another
// stream, the sample cap and a deleted tail each make the next put a new
// record.
func TestPutExtendsStreamTail(t *testing.T) {
	s := NewMemory(25)
	t.Cleanup(func() { s.Close() })
	id, err := s.Put(seg("alice", t0, 10))
	if err != nil {
		t.Fatal(err)
	}
	held, _ := s.ScanRefs(Query{})
	other, _ := s.Put(seg("alice", t0.Add(time.Second), 10, wavesegment.ChannelAccelX))
	next, err := s.Put(seg("alice", t0.Add(time.Second), 10))
	if err != nil {
		t.Fatal(err)
	}
	if other == id || next != id || s.Count() != 2 {
		t.Fatalf("ids %d, %d, %d with count %d; want the ECG put to extend record %d", id, other, next, s.Count(), id)
	}
	if got, _ := s.Get(id); got.NumSamples() != 20 {
		t.Errorf("extended record holds %d samples, want 20", got.NumSamples())
	}
	if held[0].Segment.NumSamples() != 10 {
		t.Errorf("extension changed a segment a scan already held: %d samples", held[0].Segment.NumSamples())
	}
	if late, _ := s.Put(seg("alice", t0.Add(-time.Minute), 5)); late == id {
		t.Fatal("a late packet joined the stream's tail")
	}
	if cont, _ := s.Put(seg("alice", t0.Add(2*time.Second), 5)); cont != id {
		t.Errorf("after a late packet, a continuing put made record %d, want %d", cont, id)
	}
	capped, _ := s.Put(seg("alice", t0.Add(2500*time.Millisecond), 5))
	if capped == id {
		t.Fatal("extension past the 25-sample cap")
	}
	if err := s.Delete(capped); err != nil {
		t.Fatal(err)
	}
	if again, _ := s.Put(seg("alice", t0.Add(3*time.Second), 5)); again == id || again == capped {
		t.Errorf("put after deleting the stream's tail joined record %d", again)
	}
}

// TestWaveSegmentMergeCutsRecords is the paper's §5.1 claim: merging
// timestamp-consecutive device packets into wave segments stores an hour of
// 3-channel 10 Hz data in far fewer records than storing each packet. The
// raw leg caps records at one packet so the store joins none of them.
func TestWaveSegmentMergeCutsRecords(t *testing.T) {
	const total = 36000 // one hour at 10 Hz
	for _, tc := range []struct {
		packet, raw, merged int
	}{
		{16, 2250, 5},
		{64, 563, 5},
		{256, 141, 5},
	} {
		var packets []*wavesegment.Segment
		at := t0
		for produced := 0; produced < total; produced += tc.packet {
			p := seg("alice", at, min(tc.packet, total-produced),
				wavesegment.ChannelECG, wavesegment.ChannelRespiration, wavesegment.ChannelSkinTemp)
			packets = append(packets, p)
			at = p.EndTime()
		}
		merged, err := wavesegment.OptimizeAll(packets, wavesegment.DefaultMaxSamples)
		if err != nil {
			t.Fatal(err)
		}
		count := func(segs []*wavesegment.Segment, maxSamples int) int {
			s := NewMemory(maxSamples)
			defer s.Close()
			for _, sg := range segs {
				if _, err := s.Put(sg); err != nil {
					t.Fatal(err)
				}
			}
			return s.Count()
		}
		raw, opt := count(packets, tc.packet), count(merged, wavesegment.DefaultMaxSamples)
		if raw != tc.raw || opt != tc.merged || opt >= raw {
			t.Errorf("%d-sample packets: %d raw and %d merged records, want %d and %d", tc.packet, raw, opt, tc.raw, tc.merged)
		}
	}
}

func TestScanRefsFiltersAndLimit(t *testing.T) {
	s := memStore(t)
	_, _ = s.Put(seg("alice", t0, 10))
	_, _ = s.Put(seg("bob", t0.Add(time.Minute), 10))
	_, _ = s.Put(seg("alice", t0.Add(2*time.Minute), 10))

	got, err := s.ScanRefs(Query{Contributor: "alice"})
	if err != nil || len(got) != 2 {
		t.Fatalf("contributor filter = %v, %v", got, err)
	}
	got, _ = s.ScanRefs(Query{Limit: 1})
	if len(got) != 1 {
		t.Errorf("limit = %d results", len(got))
	}
	got, _ = s.ScanRefs(Query{To: t0.Add(90 * time.Second)})
	if len(got) != 2 {
		t.Errorf("to-bounded = %d results", len(got))
	}
	s.Close()
	if _, err := s.ScanRefs(Query{}); !errors.Is(err, ErrClosed) {
		t.Errorf("closed ScanRefs: %v", err)
	}
}

func TestScanOrderWithEqualStarts(t *testing.T) {
	s := memStore(t)
	a, _ := s.Put(seg("alice", t0, 10))
	b, _ := s.Put(seg("alice", t0, 20))
	got, _ := s.ScanRefs(Query{})
	if len(got) != 2 || got[0].ID != a || got[1].ID != b {
		t.Errorf("equal-start order: %v", got)
	}
}
