package segstore

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"sensorsafe/internal/storage"
)

// flatten reduces scan results to per-contributor timestamp→row maps.
// Wave-segment merging during compaction changes record boundaries, so
// equivalence is defined over the flattened samples, not records. A
// timestamp appearing twice for one contributor fails the test — that
// is a duplicated record.
func flatten(t *testing.T, res []storage.Result) map[string]map[int64][]float64 {
	t.Helper()
	out := make(map[string]map[int64][]float64)
	for _, r := range res {
		m := out[r.Segment.Contributor]
		if m == nil {
			m = make(map[int64][]float64)
			out[r.Segment.Contributor] = m
		}
		for i, row := range r.Segment.Values {
			var ts int64
			if r.Segment.Interval > 0 {
				ts = r.Segment.Start.Add(time.Duration(i) * r.Segment.Interval).UnixNano()
			} else {
				ts = r.Segment.Timestamps[i].UnixNano()
			}
			if _, dup := m[ts]; dup {
				t.Fatalf("contributor %s: sample at %d appears twice (duplicated record)",
					r.Segment.Contributor, ts)
			}
			m[ts] = row
		}
	}
	return out
}

func mustScan(t *testing.T, s storage.Engine) []storage.Result {
	t.Helper()
	res, err := s.ScanRefs(storage.Query{})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	return res
}

// fillContiguous writes `files` L0 files of `perFile` contiguous
// 5-sample records per contributor — adjacent records merge during
// compaction. Each file is put newest record first, so no put continues
// the one before it and every record reaches disk unmerged.
func fillContiguous(t *testing.T, s *Store, contributors []string, files, perFile int) []storage.ID {
	t.Helper()
	var ids []storage.ID
	for f := 0; f < files; f++ {
		for j := perFile - 1; j >= 0; j-- {
			for _, c := range contributors {
				off := time.Duration((f*perFile+j)*5) * time.Second
				id, err := s.Put(mkSeg(c, off, 5))
				if err != nil {
					t.Fatalf("put: %v", err)
				}
				ids = append(ids, id)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
	}
	return ids
}

// TestCompactionScanEquivalence is the core invariant: compaction may
// re-shard and wave-merge records, but the flattened sample streams
// before and after must be identical.
func TestCompactionScanEquivalence(t *testing.T) {
	s := openTestStore(t, t.TempDir(), Options{MaxSegmentSamples: 40})
	defer s.Close()
	fillContiguous(t, s, []string{"alice", "bob"}, 4, 12)

	before := flatten(t, mustScan(t, s))
	countBefore := s.Count()
	if err := s.compactOnce(true); err != nil {
		t.Fatalf("compact: %v", err)
	}
	after := flatten(t, mustScan(t, s))
	if !reflect.DeepEqual(before, after) {
		t.Fatal("flattened samples diverge across compaction")
	}

	st := s.Stats()
	if st.Compactions == 0 {
		t.Fatal("no compaction recorded")
	}
	if st.MergedRecords == 0 {
		t.Fatal("contiguous records were not wave-merged")
	}
	if got := s.Count(); got != countBefore-int(st.MergedRecords) {
		t.Fatalf("count %d after merging %d of %d records", got, st.MergedRecords, countBefore)
	}
	// The merge cap must hold: no output record exceeds MaxSegmentSamples.
	for _, r := range mustScan(t, s) {
		if r.Segment.NumSamples() > 40 {
			t.Fatalf("compacted record has %d samples, cap is 40", r.Segment.NumSamples())
		}
	}
	// All L0 files were replaced by L1 output.
	for _, lv := range st.Levels {
		if lv.Level == 0 && lv.Files != 0 {
			t.Fatalf("%d L0 files survived forced compaction", lv.Files)
		}
	}
}

// TestCompactionPurgesTombstones verifies deletes are physically
// reclaimed: after compaction the tombstone set is empty, the reclaim
// counter advanced, and the data is gone from a fresh reopen.
func TestCompactionPurgesTombstones(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, Options{})
	ids := fillContiguous(t, s, []string{"alice"}, 2, 10)
	dead := []storage.ID{ids[1], ids[7], ids[13]}
	for _, id := range dead {
		if err := s.Delete(id); err != nil {
			t.Fatalf("delete: %v", err)
		}
	}
	if got := s.Stats().Tombstones; got != len(dead) {
		t.Fatalf("tombstones before compaction: %d want %d", got, len(dead))
	}
	want := flatten(t, mustScan(t, s))

	if err := s.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	st := s.Stats()
	if st.Tombstones != 0 {
		t.Fatalf("tombstones after compaction: %d want 0", st.Tombstones)
	}
	if st.ReclaimedTombs != uint64(len(dead)) {
		t.Fatalf("reclaimed %d records, want %d", st.ReclaimedTombs, len(dead))
	}
	if got := flatten(t, mustScan(t, s)); !reflect.DeepEqual(want, got) {
		t.Fatal("live samples changed across tombstone reclamation")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// The reclaim survives a reopen — nothing resurrects from any file.
	s2 := openTestStore(t, dir, Options{})
	defer s2.Close()
	if got := flatten(t, mustScan(t, s2)); !reflect.DeepEqual(want, got) {
		t.Fatal("live samples changed across reopen after reclamation")
	}
	for _, id := range dead {
		if _, err := s2.Get(id); err == nil {
			t.Fatalf("reclaimed record %d resurrected", id)
		}
	}
	if s2.Stats().Tombstones != 0 {
		t.Fatal("tombstones reappeared after reopen")
	}
}

// TestKillDuringCompaction injects a crash at every compaction stage,
// reopens the store, and demands the flattened sample streams match the
// pre-compaction state exactly: zero data loss, zero duplicates,
// whichever side of the manifest commit point the kill landed on.
func TestKillDuringCompaction(t *testing.T) {
	stages := []string{"compact.begin", "compact.files", "compact.manifest", "compact.done"}
	for _, stage := range stages {
		t.Run(stage, func(t *testing.T) {
			dir := t.TempDir()
			s := openTestStore(t, dir, Options{MaxSegmentSamples: 40})
			ids := fillContiguous(t, s, []string{"alice", "bob"}, 3, 8)
			// Some tombstones so the kill also exercises reclamation.
			for _, id := range []storage.ID{ids[2], ids[11]} {
				if err := s.Delete(id); err != nil {
					t.Fatalf("delete: %v", err)
				}
			}
			want := flatten(t, mustScan(t, s))

			boom := errors.New("simulated kill")
			s.crashHook = func(st string) error {
				if st == stage {
					return boom
				}
				return nil
			}
			if err := s.compactOnce(true); !errors.Is(err, boom) {
				t.Fatalf("compact: got %v, want injected kill", err)
			}
			crash(t, s)

			s2 := openTestStore(t, dir, Options{})
			defer s2.Close()
			got := flatten(t, mustScan(t, s2))
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("samples diverge after kill at %s", stage)
			}
			// Deleted records stay deleted regardless of where the kill hit.
			for _, id := range []storage.ID{ids[2], ids[11]} {
				if _, err := s2.Get(id); err == nil {
					t.Fatalf("deleted record %d resurrected by kill at %s", id, stage)
				}
			}
			// And the store remains fully operational: ingest, flush,
			// and a clean compaction all work on the recovered state.
			if _, err := s2.Put(mkSeg("carol", 0, 5)); err != nil {
				t.Fatalf("put after recovery: %v", err)
			}
			if err := s2.Compact(); err != nil {
				t.Fatalf("compact after recovery: %v", err)
			}
			want["carol"] = flatten(t, mustScan(t, s2))["carol"]
			if got := flatten(t, mustScan(t, s2)); !reflect.DeepEqual(want, got) {
				t.Fatal("samples diverge after post-recovery compaction")
			}
		})
	}
}

// TestCompactionUnderConcurrentIngest runs ingest, deletes, and scans
// concurrently with repeated flush+compact cycles, then verifies every
// surviving record is present exactly once with intact payloads.
func TestCompactionUnderConcurrentIngest(t *testing.T) {
	s := openTestStore(t, t.TempDir(), Options{MemtableBytes: 16 << 10, L0CompactThreshold: 2})
	defer s.Close()

	var (
		mu      sync.Mutex
		alive   = make(map[storage.ID]string)
		deleted = make(map[storage.ID]bool)
	)
	var writers sync.WaitGroup
	stop := make(chan struct{})
	compactorDone := make(chan struct{})

	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			c := fmt.Sprintf("writer%d", w)
			for i := 0; i < 150; i++ {
				seg := mkSeg(c, time.Duration(i*10)*time.Second, 6)
				id, err := s.Put(seg)
				if err != nil {
					t.Errorf("put: %v", err)
					return
				}
				mu.Lock()
				alive[id] = blob(t, seg)
				if i%17 == 0 {
					if err := s.Delete(id); err != nil {
						t.Errorf("delete: %v", err)
					} else {
						delete(alive, id)
						deleted[id] = true
					}
				}
				mu.Unlock()
			}
		}(w)
	}
	go func() {
		defer close(compactorDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Compact(); err != nil {
				t.Errorf("compact: %v", err)
				return
			}
			if _, err := s.ScanRefs(storage.Query{Contributor: "writer0"}); err != nil {
				t.Errorf("scan during compaction: %v", err)
				return
			}
		}
	}()

	writers.Wait()
	close(stop)
	<-compactorDone
	if t.Failed() {
		t.FailNow()
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("final compact: %v", err)
	}

	got := scanIDs(t, s)
	// Wave-merging absorbed some records into neighbors (keeping the
	// earlier ID), so every returned ID must be a live one and every
	// live sample must appear exactly once; flatten() fails on dupes.
	fl := flatten(t, mustScan(t, s))
	samples := 0
	for _, m := range fl {
		samples += len(m)
	}
	if want := len(alive) * 6; samples != want {
		t.Fatalf("%d live samples, want %d", samples, want)
	}
	for id := range got {
		if alive[id] != got[id] {
			t.Fatalf("scan returned id %d with wrong or deleted payload", id)
		}
	}
	for id, b := range alive {
		if got[id] != b {
			t.Fatalf("live record %d lost or corrupted", id)
		}
	}
	for id := range deleted {
		if _, err := s.Get(id); err == nil {
			t.Fatalf("deleted record %d still readable", id)
		}
	}
	if s.Count() != len(got) {
		t.Fatalf("Count()=%d but scan returned %d records", s.Count(), len(got))
	}
}
