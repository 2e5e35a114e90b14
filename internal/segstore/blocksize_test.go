package segstore

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"sensorsafe/internal/geo"
	"sensorsafe/internal/storage"
	"sensorsafe/internal/wavesegment"
)

// packetSeg builds the i-th of a phone's packets: 6 channels, 64 samples
// at 10 Hz, back to back from t0. Each packet is taken a little further
// along, so no two share a location and none wave-merge.
func packetSeg(contributor string, i int) *wavesegment.Segment {
	const samples, interval = 64, 100 * time.Millisecond
	s := &wavesegment.Segment{
		Contributor: contributor,
		Start:       t0.Add(time.Duration(i) * samples * interval),
		Interval:    interval,
		Location:    geo.Point{Lat: 34.07 + float64(i)*1e-4, Lon: -118.45},
		Channels:    []string{"ECG", "Respiration", "SkinTemp", "AccX", "AccY", "AccZ"},
	}
	for r := 0; r < samples; r++ {
		row := make([]float64, len(s.Channels))
		for c := range row {
			// Quarter steps are exact in binary, so values round trip,
			// and small ones keep the file small.
			row[c] = float64((i*31+r*7+c*13)%97) / 4
		}
		s.Values = append(s.Values, row)
	}
	return s
}

// overlapping returns the records of recs that overlap [from, to), in
// order, with IDs numbered from 1 in put order.
func overlapping(recs []*wavesegment.Segment, contributor string, from, to time.Time) []storage.Result {
	var out []storage.Result
	for i, s := range recs {
		if s.Contributor != contributor || !s.EndTime().After(from) || !s.StartTime().Before(to) {
			continue
		}
		out = append(out, storage.Result{ID: storage.ID(i + 1), Segment: s})
	}
	return out
}

// checkBlockSizes asserts the byte cut on every block of every file: a
// block holding more than one record stays below blockBytes plus its last
// record's estimate.
func checkBlockSizes(t *testing.T, s *Store) {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, r := range s.readers {
		for i, b := range r.blocks {
			if b.records <= 1 {
				continue
			}
			recs, err := r.readBlock(i)
			if err != nil {
				t.Fatalf("%s block %d: %v", r.meta.Name, i, err)
			}
			if limit := uint64(blockBytes + rawEstimate(recs[len(recs)-1].seg)); b.rawBytes >= limit {
				t.Errorf("%s block %d: %d records decode to %d bytes, want < %d", r.meta.Name, i, b.records, b.rawBytes, limit)
			}
		}
	}
}

// scanInflated runs q and returns its results and the bytes the scan
// inflated.
func scanInflated(t *testing.T, s *Store, q storage.Query) ([]storage.Result, uint64) {
	t.Helper()
	before := metricScanInflated.Value()
	got, err := s.ScanRefs(q)
	if err != nil {
		t.Fatalf("ScanRefs: %v", err)
	}
	return got, uint64(metricScanInflated.Value() - before)
}

// TestWindowReadInflatesItsWindow stores an hour of phone packets that
// cannot wave-merge, flushes and compacts them, and checks that a 1 min
// read inflates about a minute of data: at most three blocks' worth,
// where a 128-record block of these packets alone decodes to ~400 KB.
func TestWindowReadInflatesItsWindow(t *testing.T) {
	s := openTestStore(t, t.TempDir(), Options{})
	defer s.Close()
	var segs []*wavesegment.Segment
	for i := 0; i < 600; i++ {
		seg := packetSeg("alice", i)
		if _, err := s.Put(seg); err != nil {
			t.Fatalf("Put: %v", err)
		}
		segs = append(segs, seg)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if st := s.Stats(); st.DiskRecords != len(segs) {
		t.Fatalf("%d records on disk, want %d (packets must not merge)", st.DiskRecords, len(segs))
	}
	checkBlockSizes(t, s)

	for _, off := range []time.Duration{0, 7 * time.Minute, 23*time.Minute + 3*time.Second, 41 * time.Minute, 62 * time.Minute} {
		from := t0.Add(off)
		to := from.Add(time.Minute)
		got, inflated := scanInflated(t, s, storage.Query{Contributor: "alice", From: from, To: to})
		if want := overlapping(segs, "alice", from, to); !resultsEqual(t, want, got) {
			t.Fatalf("window at +%v: %d results, want %d", off, len(got), len(want))
		}
		t.Logf("window at +%v: %d records, %d bytes inflated", off, len(got), inflated)
		if inflated == 0 || inflated > 3*blockBytes {
			t.Errorf("window at +%v inflated %d bytes, want 1..%d", off, inflated, 3*blockBytes)
		}
	}
}

// legacyInputs are the records in testdata/legacy128: 28 minutes of
// phone packets, 128 to a block as the record-count cut wrote them, plus
// aperiodic and annotated records of a second contributor. IDs are put
// order from 1.
func legacyInputs() []*wavesegment.Segment {
	var segs []*wavesegment.Segment
	for i := 0; i < 260; i++ {
		segs = append(segs, packetSeg("alice", i))
	}
	for i := 0; i < 5; i++ {
		s := mkTimedSeg("bob", time.Duration(i*100)*time.Second, 4)
		s.Location.Lat += float64(i+1) * 1e-3 // or Put joins them into one record
		segs = append(segs, s)
	}
	annotated := mkSeg("bob", 10000*time.Second, 8)
	for _, a := range []wavesegment.Annotation{
		{Context: "Walk", Start: annotated.Start, End: annotated.Start.Add(3 * time.Second)},
		{Context: "Run", Start: annotated.Start.Add(3 * time.Second), End: annotated.Start.Add(8 * time.Second)},
	} {
		if err := annotated.Annotate(a.Context, a.Start, a.End); err != nil {
			panic(err)
		}
	}
	return append(segs, annotated)
}

// copyDir copies the regular files of src into a new temp dir, since
// opening a store writes to its directory.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestLegacyBlockLayoutReads opens a store whose one segment file was
// written with 128-record blocks, before the byte cut. Its windows must
// read back exactly the records that wrote it, and compaction must
// rewrite it into byte-cut blocks holding the same records.
func TestLegacyBlockLayoutReads(t *testing.T) {
	segs := legacyInputs()
	s := openTestStore(t, copyDir(t, filepath.Join("testdata", "legacy128")), Options{})
	defer s.Close()

	s.mu.RLock()
	oldBlocks := 0
	for _, r := range s.readers {
		for _, b := range r.blocks {
			if b.records == blockRecords {
				oldBlocks++
			}
		}
	}
	s.mu.RUnlock()
	if oldBlocks < 2 {
		t.Fatalf("fixture holds %d 128-record blocks, want the old layout's 2", oldBlocks)
	}

	check := func(stage string) {
		t.Helper()
		for _, w := range []struct {
			contributor string
			from, to    time.Duration
		}{
			{"alice", 0, 2 * time.Hour},
			{"alice", 0, time.Minute},
			{"alice", 13*time.Minute + 30*time.Second, 14*time.Minute + 30*time.Second},
			{"alice", 27 * time.Minute, 28 * time.Minute},
			{"bob", 0, 4 * time.Hour},
			{"bob", 150 * time.Second, 350 * time.Second},
		} {
			from, to := t0.Add(w.from), t0.Add(w.to)
			got, err := s.ScanRefs(storage.Query{Contributor: w.contributor, From: from, To: to})
			if err != nil {
				t.Fatalf("%s: ScanRefs: %v", stage, err)
			}
			want := overlapping(segs, w.contributor, from, to)
			if len(want) == 0 {
				t.Fatalf("%s: window %s [%v, %v) selects no input", stage, w.contributor, w.from, w.to)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: window %s [%v, %v): %d records differ from the %d that wrote them", stage, w.contributor, w.from, w.to, len(got), len(want))
			}
		}
	}
	check("as written")

	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	st := s.Stats()
	if len(st.Levels) != 1 || st.Levels[0].Level != 1 || st.DiskRecords != len(segs) {
		t.Fatalf("after compaction: levels %+v, %d records; want all %d in L1", st.Levels, st.DiskRecords, len(segs))
	}
	checkBlockSizes(t, s)
	check("compacted")
}
