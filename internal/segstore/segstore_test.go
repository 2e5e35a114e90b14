package segstore

import (
	"fmt"
	"math/rand"
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
	legacy := storage.NewMemory()
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
		want, err := legacy.Scan(q)
		if err != nil {
			t.Fatalf("legacy scan %d: %v", qi, err)
		}
		got, err := seg.Scan(q)
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

	// Tail probes agree (the upload coalescing path).
	for _, c := range contributors {
		for _, probe := range []time.Duration{0, 5000 * time.Second, 200000 * time.Second} {
			r1, ok1 := seg.LatestBeforeFunc(c, t0.Add(probe), nil)
			r2, ok2 := legacy.LatestBeforeFunc(c, t0.Add(probe), nil)
			if ok1 != ok2 {
				t.Fatalf("latestBefore(%s,+%v): ok %v vs %v", c, probe, ok1, ok2)
			}
			if ok1 && (r1.ID != r2.ID || blob(t, r1.Segment) != blob(t, r2.Segment)) {
				t.Fatalf("latestBefore(%s,+%v): id %d vs %d", c, probe, r1.ID, r2.ID)
			}
		}
		pred := func(s *wavesegment.Segment) bool { return len(s.Channels) == 2 }
		r1, ok1 := seg.LatestBeforeFunc(c, t0.Add(300000*time.Second), pred)
		r2, ok2 := legacy.LatestBeforeFunc(c, t0.Add(300000*time.Second), pred)
		if ok1 != ok2 || (ok1 && r1.ID != r2.ID) {
			t.Fatalf("latestBeforeFunc(%s): %v/%v vs %v/%v", c, r1.ID, ok1, r2.ID, ok2)
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
	got, err := s2.Scan(storage.Query{})
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
	res, err := s.Scan(storage.Query{})
	if err != nil || len(res) != 0 {
		t.Fatalf("scan after deletes: %d results, err %v", len(res), err)
	}
}

// TestScanDuringCompactionFileRemoval exercises the reader-refcount
// path: a scan snapshots its sources, compaction replaces and unlinks
// the files mid-scan, and the scan must still return every record.
func TestScanDuringCompactionFileRemoval(t *testing.T) {
	s := openTestStore(t, t.TempDir(), Options{L0CompactThreshold: 2})
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
	res, err := s.Scan(storage.Query{})
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
