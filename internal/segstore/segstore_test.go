package segstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"sensorsafe/internal/geo"
	"sensorsafe/internal/storage"
	"sensorsafe/internal/wavesegment"
)

// t0 is an arbitrary fixed epoch for deterministic segments.
var t0 = time.Date(2026, 3, 1, 8, 0, 0, 0, time.UTC)

// mkSeg builds a valid periodic segment: n samples at 1s for the
// contributor, starting at t0+off.
func mkSeg(contributor string, off time.Duration, n int, channels ...string) *wavesegment.Segment {
	if len(channels) == 0 {
		channels = []string{"hr"}
	}
	s := &wavesegment.Segment{
		Contributor: contributor,
		Start:       t0.Add(off),
		Interval:    time.Second,
		Location:    geo.Point{Lat: 34.07, Lon: -118.45},
		Channels:    channels,
	}
	for i := 0; i < n; i++ {
		row := make([]float64, len(channels))
		for j := range row {
			row[j] = float64(i) + float64(j)/10
		}
		s.Values = append(s.Values, row)
	}
	return s
}

func openTestStore(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	opts.Dir = dir
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

// blob canonicalizes a segment for comparison.
func blob(t *testing.T, s *wavesegment.Segment) string {
	t.Helper()
	b, err := wavesegment.MarshalBinary(s)
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	return string(b)
}

// resultsEqual compares two result sets by (ID, encoded segment).
func resultsEqual(t *testing.T, want, got []storage.Result) bool {
	t.Helper()
	if len(want) != len(got) {
		return false
	}
	for i := range want {
		if want[i].ID != got[i].ID || blob(t, want[i].Segment) != blob(t, got[i].Segment) {
			return false
		}
	}
	return true
}

// TestDifferentialAgainstLegacyEngine drives the segstore and the
// legacy in-memory engine through an identical randomized workload —
// puts across contributors with shuffled starts, deletes, explicit
// flushes — and demands identical observable behavior from every read
// API.
func TestDifferentialAgainstLegacyEngine(t *testing.T) {
	seg := openTestStore(t, t.TempDir(), Options{MemtableBytes: 8 << 10})
	defer seg.Close()
	legacy := storage.NewMemory(0)
	defer legacy.Close()

	rng := rand.New(rand.NewSource(42))
	contributors := []string{"alice", "bob", "carol"}
	channelSets := [][]string{{"hr"}, {"hr", "gsr"}, {"gps"}}
	var ids []storage.ID
	for i := 0; i < 400; i++ {
		c := contributors[rng.Intn(len(contributors))]
		s := mkSeg(c, time.Duration(rng.Intn(100000))*time.Second, 1+rng.Intn(20),
			channelSets[rng.Intn(len(channelSets))]...)
		id1, err1 := seg.Put(s)
		id2, err2 := legacy.Put(s)
		if err1 != nil || err2 != nil {
			t.Fatalf("put: %v / %v", err1, err2)
		}
		if id1 != id2 {
			t.Fatalf("id divergence: segstore %d legacy %d", id1, id2)
		}
		ids = append(ids, id1)
		if rng.Intn(10) == 0 && len(ids) > 0 {
			victim := ids[rng.Intn(len(ids))]
			e1 := seg.Delete(victim)
			e2 := legacy.Delete(victim)
			if (e1 == nil) != (e2 == nil) {
				t.Fatalf("delete(%d) divergence: %v / %v", victim, e1, e2)
			}
		}
		if rng.Intn(50) == 0 {
			if err := seg.Flush(); err != nil {
				t.Fatalf("flush: %v", err)
			}
		}
	}

	if seg.Count() != legacy.Count() {
		t.Fatalf("count: segstore %d legacy %d", seg.Count(), legacy.Count())
	}

	queries := []storage.Query{
		{},
		{Contributor: "alice"},
		{From: t0.Add(10000 * time.Second), To: t0.Add(60000 * time.Second)},
		{Contributor: "bob", Channels: []string{"gsr"}},
		{Channels: []string{"gps"}, Limit: 7},
		{Region: geo.Rect{MinLat: 34, MinLon: -119, MaxLat: 35, MaxLon: -118}},
		{Contributor: "carol", From: t0, To: t0.Add(30000 * time.Second), Limit: 11},
	}
	for qi, q := range queries {
		want, err := legacy.ScanRefs(q)
		if err != nil {
			t.Fatalf("legacy scan %d: %v", qi, err)
		}
		got, err := seg.ScanRefs(q)
		if err != nil {
			t.Fatalf("segstore scan %d: %v", qi, err)
		}
		if !resultsEqual(t, want, got) {
			t.Fatalf("scan %d diverges: legacy %d results, segstore %d", qi, len(want), len(got))
		}
	}

	// Point reads agree, including not-found after delete.
	for _, id := range ids[:50] {
		s1, e1 := seg.Get(id)
		s2, e2 := legacy.Get(id)
		if (e1 == nil) != (e2 == nil) {
			t.Fatalf("get(%d): %v / %v", id, e1, e2)
		}
		if e1 == nil && blob(t, s1) != blob(t, s2) {
			t.Fatalf("get(%d) payload diverges", id)
		}
	}
}

// TestDifferentialContiguousStreams interleaves contiguous packets of six
// streams (3 contributors x 2 channel sets) with occasional gaps and late
// packets. Without
// flushes both engines extend the same tails, so IDs, counts and scans
// are exact-equal; a flush cuts segstore's tails, so with flushes only the
// flattened samples must agree.
func TestDifferentialContiguousStreams(t *testing.T) {
	contributors := []string{"alice", "bob", "carol"}
	channelSets := [][]string{{"hr"}, {"hr", "gsr"}}
	for _, flushes := range []bool{false, true} {
		t.Run(fmt.Sprintf("flushes=%v", flushes), func(t *testing.T) {
			seg := openTestStore(t, t.TempDir(), Options{MaxSegmentSamples: 40})
			defer seg.Close()
			mem := storage.NewMemory(40)
			defer mem.Close()
			rng := rand.New(rand.NewSource(7))
			var next [6]time.Duration
			for k := range next {
				// A contributor's two streams never overlap in time, so
				// flatten sees each sample once.
				next[k] = time.Duration(k%2) * 1e6 * time.Second
			}
			for i := 0; i < 400; i++ {
				k := rng.Intn(len(next))
				n := 1 + rng.Intn(8)
				off := next[k]
				if rng.Intn(15) == 0 {
					// Late, behind everything stored: it must not become
					// the record its stream keeps extending.
					off = -time.Duration(i+1) * 100 * time.Second
				} else {
					next[k] += time.Duration(n) * time.Second
					if rng.Intn(10) == 0 {
						next[k] += time.Hour
					}
				}
				p := mkSeg(contributors[k/2], off, n, channelSets[k%2]...)
				id1, err1 := seg.Put(p)
				id2, err2 := mem.Put(p)
				if err1 != nil || err2 != nil {
					t.Fatalf("put: %v / %v", err1, err2)
				}
				if !flushes && id1 != id2 {
					t.Fatalf("put %d: segstore id %d, memory id %d", i, id1, id2)
				}
				if flushes && rng.Intn(40) == 0 {
					if err := seg.Flush(); err != nil {
						t.Fatalf("flush: %v", err)
					}
				}
			}
			if flushes {
				if !reflect.DeepEqual(flatten(t, mustScan(t, seg)), flatten(t, mustScan(t, mem))) {
					t.Fatal("flattened samples diverge")
				}
				return
			}
			if seg.Count() != mem.Count() || mem.Count() > 200 {
				t.Fatalf("count: segstore %d memory %d, want equal and most of 400 puts extending", seg.Count(), mem.Count())
			}
			for _, q := range []storage.Query{{}, {Contributor: "bob"}, {Channels: []string{"gsr"}}} {
				want, _ := mem.ScanRefs(q)
				got, _ := seg.ScanRefs(q)
				if !resultsEqual(t, want, got) {
					t.Fatalf("scan %+v diverges: memory %d results, segstore %d", q, len(want), len(got))
				}
			}
		})
	}
}

// TestContiguousPutsWALBytes: a stream of contiguous packets is one
// record whose WAL holds each packet once, with no tombstones.
func TestContiguousPutsWALBytes(t *testing.T) {
	s := openTestStore(t, t.TempDir(), Options{})
	defer s.Close()
	uploaded := 0
	for i := 0; i < 16; i++ {
		p := mkSeg("a", time.Duration(i*64)*time.Second, 64, "hr", "gsr")
		uploaded += len(blob(t, p))
		if _, err := s.Put(p); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	st := s.Stats()
	if s.Count() != 1 || st.Tombstones != 0 {
		t.Fatalf("count %d, tombstones %d; want 1 record, 0 tombstones", s.Count(), st.Tombstones)
	}
	if float64(st.WALBytes) > 1.2*float64(uploaded) {
		t.Fatalf("WAL holds %d bytes for %d bytes of packets", st.WALBytes, uploaded)
	}
}

// TestConcurrentTailExtension extends several streams from concurrent
// writers while a reader walks ScanRefs results and flushes cut the
// tails: every record a reader holds stays whole (run with -race), and
// every sample lands exactly once.
func TestConcurrentTailExtension(t *testing.T) {
	s := openTestStore(t, t.TempDir(), Options{})
	defer s.Close()
	const writers, puts = 4, 200
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			res, err := s.ScanRefs(storage.Query{})
			if err != nil {
				t.Errorf("scan: %v", err)
				return
			}
			for _, r := range res {
				if err := r.Segment.Validate(); err != nil {
					t.Errorf("record %d torn mid-read: %v", r.ID, err)
					return
				}
			}
			if i%10 == 0 {
				if err := s.Flush(); err != nil {
					t.Errorf("flush: %v", err)
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < puts; i++ {
				if _, err := s.Put(mkSeg(fmt.Sprintf("w%d", w), time.Duration(i*3)*time.Second, 3)); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-readerDone
	for c, samples := range flatten(t, mustScan(t, s)) {
		if len(samples) != puts*3 {
			t.Errorf("%s: %d samples, want %d", c, len(samples), puts*3)
		}
	}
}

// TestPersistenceRoundTrip closes a populated store and reopens it:
// every record must come back, whether it was flushed to segment files
// or still sat in the WAL tail.
func TestPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, Options{MemtableBytes: 4 << 10})
	var want []storage.Result
	for i := 0; i < 120; i++ {
		seg := mkSeg(fmt.Sprintf("c%d", i%3), time.Duration(i)*time.Minute, 5+i%7)
		id, err := s.Put(seg)
		if err != nil {
			t.Fatalf("put: %v", err)
		}
		want = append(want, storage.Result{ID: id, Segment: seg.Clone()})
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	s2 := openTestStore(t, dir, Options{})
	defer s2.Close()
	if s2.Count() != len(want) {
		t.Fatalf("count after reopen: %d want %d", s2.Count(), len(want))
	}
	got, err := s2.ScanRefs(storage.Query{})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	byID := make(map[storage.ID]string)
	for _, r := range got {
		byID[r.ID] = blob(t, r.Segment)
	}
	for _, w := range want {
		if byID[w.ID] != blob(t, w.Segment) {
			t.Fatalf("record %d lost or corrupted after reopen", w.ID)
		}
	}
	// IDs must not be reused after reopen.
	id, err := s2.Put(mkSeg("c0", 0, 3))
	if err != nil {
		t.Fatalf("put after reopen: %v", err)
	}
	if id <= want[len(want)-1].ID {
		t.Fatalf("id %d reused after reopen (last was %d)", id, want[len(want)-1].ID)
	}
}

// TestDeleteSemantics covers all three residencies: active memtable,
// sealed/flushed file, and unknown IDs.
func TestDeleteSemantics(t *testing.T) {
	s := openTestStore(t, t.TempDir(), Options{})
	defer s.Close()
	idMem, _ := s.Put(mkSeg("a", 0, 4))
	idDisk, _ := s.Put(mkSeg("a", time.Hour, 4))
	if err := s.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	idMem2, _ := s.Put(mkSeg("a", 2*time.Hour, 4))

	if err := s.Delete(idMem); err != nil {
		t.Fatalf("delete flushed record: %v", err)
	}
	if err := s.Delete(idDisk); err != nil {
		t.Fatalf("delete disk record: %v", err)
	}
	if err := s.Delete(idMem2); err != nil {
		t.Fatalf("delete memtable record: %v", err)
	}
	for _, id := range []storage.ID{idMem, idDisk, idMem2, 9999} {
		if err := s.Delete(id); err == nil {
			t.Fatalf("second delete of %d should fail", id)
		}
		if _, err := s.Get(id); err == nil {
			t.Fatalf("get of deleted %d should fail", id)
		}
	}
	if s.Count() != 0 {
		t.Fatalf("count after deletes: %d", s.Count())
	}
	res, err := s.ScanRefs(storage.Query{})
	if err != nil || len(res) != 0 {
		t.Fatalf("scan after deletes: %d results, err %v", len(res), err)
	}
}

// TestScanDuringCompactionFileRemoval exercises the reader-refcount
// path: a scan snapshots its sources, compaction replaces and unlinks
// the files mid-scan, and the scan must still return every record.
func TestScanDuringCompactionFileRemoval(t *testing.T) {
	s := openTestStore(t, t.TempDir(), Options{})
	defer s.Close()
	total := 0
	for i := 0; i < 4; i++ {
		for j := 0; j < 30; j++ {
			if _, err := s.Put(mkSeg("a", time.Duration(i*1000+j*10)*time.Second, 8)); err != nil {
				t.Fatalf("put: %v", err)
			}
			total++
		}
		if err := s.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
	}
	// Snapshot the scan sources, then compact before draining.
	sn, err := s.snapshot(&storage.Query{})
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	defer sn.release()
	if err := s.compactOnce(true); err != nil {
		t.Fatalf("compact: %v", err)
	}
	count := 0
	for _, it := range sn.iterators(&storage.Query{}) {
		for {
			_, ok, err := it.next()
			if err != nil {
				t.Fatalf("iterate removed file: %v", err)
			}
			if !ok {
				break
			}
			count++
		}
	}
	if count != total {
		t.Fatalf("scan over removed files saw %d of %d records", count, total)
	}
	// And a fresh scan (post-compaction sources) holds the same data.
	samples := 0
	res, err := s.ScanRefs(storage.Query{})
	if err != nil {
		t.Fatalf("fresh scan: %v", err)
	}
	for _, r := range res {
		samples += r.Segment.NumSamples()
	}
	if samples != total*8 {
		t.Fatalf("fresh scan holds %d samples, want %d", samples, total*8)
	}
}

// TestPutStallsWhileFlushing holds a flush at its file stage: writes go
// on until the active memtable is half full, the next one waits for the
// flush, and a flush that fails releases it rather than holding it.
func TestPutStallsWhileFlushing(t *testing.T) {
	s := openTestStore(t, t.TempDir(), Options{MemtableBytes: 4 << 10})
	defer s.Close()
	held, hold := make(chan struct{}, 1), make(chan error, 1)
	var once, released sync.Once
	release := func() { released.Do(func() { hold <- fmt.Errorf("injected flush failure") }) }
	defer release() // before Close, which waits for the held flush
	s.SetCrashHook(func(stage string) error {
		first := false
		if stage == "flush.file" {
			once.Do(func() { first = true })
		}
		if !first {
			return nil
		}
		held <- struct{}{}
		return <-hold
	})
	var off time.Duration
	put := func() error {
		off += time.Hour
		_, err := s.Put(mkSeg("alice", off, 16))
		return err
	}
	// Cross the budget; the flush seals the memtable and stops at the hook.
	for flushing := false; !flushing; {
		if err := put(); err != nil {
			t.Fatal(err)
		}
		select {
		case <-held:
			flushing = true
		case <-time.After(10 * time.Millisecond):
		}
	}
	done := make(chan error, 1)
	go func() {
		for {
			s.mu.RLock()
			half := s.active.bytes >= s.opts.MemtableBytes/2
			s.mu.RUnlock()
			if err := put(); half || err != nil {
				done <- err
				return
			}
		}
	}()
	select {
	case err := <-done:
		t.Fatalf("a write past half the budget went through during a flush (%v)", err)
	case <-time.After(200 * time.Millisecond):
	}
	release()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the failed flush did not release the stalled write")
	}
}
