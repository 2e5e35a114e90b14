package segstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sensorsafe/internal/resilience"
	"sensorsafe/internal/storage"
	"sensorsafe/internal/wavesegment"
)

// crash simulates a process kill: background loops stop and file
// descriptors close, but nothing is flushed and no manifest is written.
// The on-disk state is exactly what a real crash would leave behind.
func crash(t *testing.T, s *Store) {
	t.Helper()
	close(s.stopCh)
	s.wg.Wait()
	s.mu.Lock()
	s.closed = true
	_ = s.wal.close()
	readers := make([]*segReader, 0, len(s.readers))
	for _, r := range s.readers {
		readers = append(readers, r)
	}
	s.readers = make(map[string]*segReader)
	s.mu.Unlock()
	for _, r := range readers {
		r.markObsolete()
	}
}

// scanIDs returns every live record ID, failing the test on duplicates
// — a duplicate means a record is visible from two sources at once.
func scanIDs(t *testing.T, s *Store) map[storage.ID]string {
	t.Helper()
	res, err := s.ScanRefs(storage.Query{})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	out := make(map[storage.ID]string, len(res))
	for _, r := range res {
		if _, dup := out[r.ID]; dup {
			t.Fatalf("record %d returned twice by scan", r.ID)
		}
		out[r.ID] = blob(t, r.Segment)
	}
	return out
}

// TestRecoveryReplaysOnlyWALTail proves that records already flushed to
// segment files are not replayed from the WAL: after a flush the
// covered WAL files are gone, so reopening replays exactly the
// unflushed tail.
func TestRecoveryReplaysOnlyWALTail(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, Options{})
	for i := 0; i < 60; i++ {
		if _, err := s.Put(mkSeg("a", time.Duration(i)*time.Minute, 4)); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	const tail = 10
	for i := 0; i < tail; i++ {
		if _, err := s.Put(mkSeg("a", time.Duration(1000+i)*time.Minute, 4)); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	crash(t, s)

	s2 := openTestStore(t, dir, Options{})
	defer s2.Close()
	if got := s2.Stats().WALReplayed; got != tail {
		t.Fatalf("replayed %d WAL records, want exactly the %d-record tail", got, tail)
	}
	if s2.Count() != 60+tail {
		t.Fatalf("count after recovery: %d want %d", s2.Count(), 60+tail)
	}
	if ids := scanIDs(t, s2); len(ids) != 60+tail {
		t.Fatalf("scan after recovery: %d records want %d", len(ids), 60+tail)
	}
}

// TestTornManifestFallsBackToPreviousGeneration corrupts the newest
// manifest generation (as a torn or bit-rotted write would) and
// verifies the store opens from the previous valid generation with no
// data loss: flushed records come from the still-referenced file,
// unflushed ones from the WAL.
func TestTornManifestFallsBackToPreviousGeneration(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, Options{})
	for i := 0; i < 50; i++ {
		if _, err := s.Put(mkSeg("a", time.Duration(i)*time.Minute, 4)); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	for i := 0; i < 20; i++ {
		if _, err := s.Put(mkSeg("b", time.Duration(i)*time.Minute, 4)); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	var gen uint64
	s.mu.RLock()
	gen = s.man.Generation
	s.mu.RUnlock()
	crash(t, s)

	// A torn write of the *next* generation: the file exists but its
	// content is garbage. loadManifest must skip it.
	torn := filepath.Join(dir, manifestName(gen+1))
	if err := os.WriteFile(torn, []byte("{\"generation\": 99, \"crc\": tor"), 0o644); err != nil {
		t.Fatalf("write torn manifest: %v", err)
	}

	s2 := openTestStore(t, dir, Options{})
	defer s2.Close()
	if s2.Count() != 70 {
		t.Fatalf("count after torn-manifest recovery: %d want 70", s2.Count())
	}
	if ids := scanIDs(t, s2); len(ids) != 70 {
		t.Fatalf("scan after torn-manifest recovery: %d records want 70", len(ids))
	}
}

// TestAllManifestsCorrupt verifies the failure is explicit — a corrupt
// store must refuse to open rather than silently present partial data.
func TestAllManifestsCorrupt(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, Options{})
	if _, err := s.Put(mkSeg("a", 0, 4)); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	manifests, err := filepath.Glob(filepath.Join(dir, "manifest-*.json"))
	if err != nil || len(manifests) == 0 {
		t.Fatalf("no manifests found: %v", err)
	}
	for _, m := range manifests {
		if err := os.WriteFile(m, []byte("garbage"), 0o644); err != nil {
			t.Fatalf("corrupt %s: %v", m, err)
		}
	}
	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("open succeeded with every manifest corrupt; want explicit error")
	}
}

// TestTornSegmentFileRecovery covers a crash mid-flush: the segment
// file may exist (whole or as a .tmp) but the manifest never committed.
// Reopening must discard the orphans and restore every record from the
// WAL — no loss, no duplicates.
func TestTornSegmentFileRecovery(t *testing.T) {
	for _, stage := range []string{"flush.begin", "flush.file"} {
		t.Run(stage, func(t *testing.T) {
			dir := t.TempDir()
			s := openTestStore(t, dir, Options{})
			want := make(map[storage.ID]string)
			for i := 0; i < 40; i++ {
				seg := mkSeg("a", time.Duration(i)*time.Minute, 4)
				id, err := s.Put(seg)
				if err != nil {
					t.Fatalf("put: %v", err)
				}
				want[id] = blob(t, seg)
			}
			// A stray torn temp file from an even earlier crash.
			tmp := filepath.Join(dir, "seg-99999999.seg.tmp")
			if err := os.WriteFile(tmp, []byte("torn"), 0o644); err != nil {
				t.Fatalf("write tmp: %v", err)
			}
			boom := errors.New("simulated crash")
			s.crashHook = func(st string) error {
				if st == stage {
					return boom
				}
				return nil
			}
			if err := s.Flush(); !errors.Is(err, boom) {
				t.Fatalf("flush: got %v, want injected crash", err)
			}
			crash(t, s)

			s2 := openTestStore(t, dir, Options{})
			defer s2.Close()
			got := scanIDs(t, s2)
			if len(got) != len(want) {
				t.Fatalf("recovered %d records, want %d", len(got), len(want))
			}
			for id, b := range want {
				if got[id] != b {
					t.Fatalf("record %d lost or corrupted", id)
				}
			}
			if _, err := os.Stat(tmp); !os.IsNotExist(err) {
				t.Fatalf("orphan tmp file survived recovery: %v", err)
			}
			// The uncommitted segment file must be gone too: nothing
			// references it and its records replayed from the WAL.
			segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
			s2.mu.RLock()
			referenced := make(map[string]bool)
			for _, fm := range s2.man.Files {
				referenced[fm.Name] = true
			}
			s2.mu.RUnlock()
			for _, f := range segs {
				if !referenced[filepath.Base(f)] {
					t.Fatalf("unreferenced segment file %s survived recovery", filepath.Base(f))
				}
			}
		})
	}
}

// TestCrashAfterFlushManifest covers the other side of the commit
// point: the manifest referencing the new file is durable, but WAL
// garbage collection never ran. Replay must skip the flushed records
// (seq <= FlushedSeq) so none appear twice.
func TestCrashAfterFlushManifest(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, Options{})
	want := make(map[storage.ID]string)
	for i := 0; i < 40; i++ {
		seg := mkSeg("a", time.Duration(i)*time.Minute, 4)
		id, err := s.Put(seg)
		if err != nil {
			t.Fatalf("put: %v", err)
		}
		want[id] = blob(t, seg)
	}
	boom := errors.New("simulated crash")
	s.crashHook = func(st string) error {
		if st == "flush.manifest" {
			return boom
		}
		return nil
	}
	if err := s.Flush(); !errors.Is(err, boom) {
		t.Fatalf("flush: got %v, want injected crash", err)
	}
	crash(t, s)

	s2 := openTestStore(t, dir, Options{})
	defer s2.Close()
	if got := s2.Stats().WALReplayed; got != 0 {
		t.Fatalf("replayed %d WAL records after committed flush, want 0", got)
	}
	got := scanIDs(t, s2)
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	for id, b := range want {
		if got[id] != b {
			t.Fatalf("record %d lost or corrupted", id)
		}
	}
}

// TestManifestSaveFailsAfterRename fails a flush's and a compaction's
// manifest save the way a directory sync error does: the new generation
// is renamed into place, yet the save reports an error. Whichever state
// the next open finds, every sample must come back exactly once: the
// failed generation itself ("reopen"), the one before it because the
// rename did not survive a crash ("rolled back"), or either of those
// after a later flush was killed before its own commit ("next flush
// killed").
func TestManifestSaveFailsAfterRename(t *testing.T) {
	errSync := errors.New("simulated directory sync failure")
	var fail atomic.Bool
	var failed string
	writeFileAtomic = func(path string, data []byte, perm os.FileMode) error {
		if err := resilience.WriteFileAtomic(path, data, perm); err != nil {
			return err
		}
		if fail.CompareAndSwap(true, false) {
			failed = path
			return errSync
		}
		return nil
	}
	t.Cleanup(func() { writeFileAtomic = resilience.WriteFileAtomic })

	ops := map[string]func(*Store) error{
		"flush":   (*Store).Flush,
		"compact": func(s *Store) error { return s.compactOnce(true) },
	}
	for _, op := range []string{"flush", "compact"} {
		for _, after := range []string{"reopen", "rolled back", "next flush killed"} {
			t.Run(op+"/"+after, func(t *testing.T) {
				dir := t.TempDir()
				s := openTestStore(t, dir, Options{MaxSegmentSamples: 40})
				fillContiguous(t, s, []string{"alice", "bob"}, 3, 8)
				for i := 0; i < 5; i++ { // an unflushed tail
					if _, err := s.Put(mkSeg("carol", time.Duration(i)*time.Minute, 4)); err != nil {
						t.Fatalf("put: %v", err)
					}
				}
				want := flatten(t, mustScan(t, s))

				fail.Store(true)
				if err := ops[op](s); !errors.Is(err, errSync) {
					t.Fatalf("%s: got %v, want the injected sync error", op, err)
				}
				if got := flatten(t, mustScan(t, s)); !reflect.DeepEqual(want, got) {
					t.Fatalf("samples diverge after the failed %s", op)
				}
				switch after {
				case "rolled back":
					if err := os.Remove(failed); err != nil {
						t.Fatal(err)
					}
				case "next flush killed":
					if _, err := s.Put(mkSeg("dave", 0, 4)); err != nil {
						t.Fatalf("put: %v", err)
					}
					want = flatten(t, mustScan(t, s))
					boom := errors.New("simulated kill")
					s.crashHook = func(st string) error {
						if st == "flush.file" {
							return boom
						}
						return nil
					}
					if err := s.Flush(); !errors.Is(err, boom) {
						t.Fatalf("flush: got %v, want injected kill", err)
					}
				}
				crash(t, s)

				s2 := openTestStore(t, dir, Options{})
				defer s2.Close()
				if got := flatten(t, mustScan(t, s2)); !reflect.DeepEqual(want, got) {
					t.Fatalf("samples diverge after reopen")
				}
			})
		}
	}
}

// TestRecoveryWithDeletesInWAL crashes with puts and deletes in the
// unflushed tail and verifies replay applies both.
func TestRecoveryWithDeletesInWAL(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, Options{})
	var ids []storage.ID
	for i := 0; i < 30; i++ {
		id, err := s.Put(mkSeg("a", time.Duration(i)*time.Minute, 4))
		if err != nil {
			t.Fatalf("put: %v", err)
		}
		ids = append(ids, id)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	// Tail: delete one disk record, add two, delete one of the two.
	if err := s.Delete(ids[3]); err != nil {
		t.Fatalf("delete disk record: %v", err)
	}
	idA, _ := s.Put(mkSeg("a", 100*time.Hour, 4))
	idB, _ := s.Put(mkSeg("a", 101*time.Hour, 4))
	if err := s.Delete(idB); err != nil {
		t.Fatalf("delete memtable record: %v", err)
	}
	crash(t, s)

	s2 := openTestStore(t, dir, Options{})
	defer s2.Close()
	got := scanIDs(t, s2)
	if len(got) != 30 { // 30 - 1 deleted + 2 added - 1 deleted
		t.Fatalf("recovered %d records, want 30", len(got))
	}
	for _, dead := range []storage.ID{ids[3], idB} {
		if _, ok := got[dead]; ok {
			t.Fatalf("deleted record %d resurrected by replay", dead)
		}
		if _, err := s2.Get(dead); err == nil {
			t.Fatalf("get of deleted %d succeeded after replay", dead)
		}
	}
	if _, ok := got[idA]; !ok {
		t.Fatalf("tail record %d lost", idA)
	}
	if s2.Count() != 30 {
		t.Fatalf("count after replay: %d want 30", s2.Count())
	}
}

// TestContiguousPutsSurviveAbortedFlushAndTornFrame extends a stream
// across an aborted flush, with a run of late packets in the second
// memtable, then crashes mid-append: replay, which folds both WAL files
// into one memtable, must restore exactly the acknowledged puts, joined
// into the records Put reported.
func TestContiguousPutsSurviveAbortedFlushAndTornFrame(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, Options{})
	want := make(map[storage.ID]*wavesegment.Segment)
	put := func(i int) {
		t.Helper()
		p := mkSeg("a", time.Duration(i*4)*time.Second, 4)
		id, err := s.Put(p)
		if err != nil {
			t.Fatalf("put: %v", err)
		}
		if w, ok := want[id]; !ok {
			want[id] = p.Clone()
		} else if want[id], ok = wavesegment.Extend(w, p, 0); !ok {
			t.Fatalf("put %d joined record %d, which it does not continue", i, id)
		}
	}
	for i := 0; i < 8; i++ {
		put(i)
	}
	boom := errors.New("simulated crash")
	s.crashHook = func(st string) error {
		if st == "flush.file" {
			return boom
		}
		return nil
	}
	if err := s.Flush(); !errors.Is(err, boom) {
		t.Fatalf("flush: got %v, want injected crash", err)
	}
	for i := -8; i < 0; i++ {
		put(i)
	}
	for i := 8; i < 16; i++ {
		put(i)
	}
	// The crash lands mid-append: half of one more frame reaches the log,
	// and that Put never returned.
	before := s.Stats().WALBytes
	if _, err := s.Put(mkSeg("a", 64*time.Second, 4)); err != nil {
		t.Fatalf("put: %v", err)
	}
	torn := s.Stats().WALBytes - before
	crash(t, s)
	wals, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(wals) == 0 {
		t.Fatalf("no WAL files: %v", err)
	}
	newest := wals[len(wals)-1]
	fi, err := os.Stat(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(newest, fi.Size()-torn/2); err != nil {
		t.Fatal(err)
	}

	s2 := openTestStore(t, dir, Options{})
	defer s2.Close()
	got := scanIDs(t, s2)
	if len(got) != len(want) || s2.Count() != len(want) {
		t.Fatalf("recovered %d records (count %d), want %d", len(got), s2.Count(), len(want))
	}
	for id, w := range want {
		if got[id] != blob(t, w) {
			t.Fatalf("record %d lost or corrupted", id)
		}
	}
}

// TestTornWALTailTolerated appends a truncated frame to the active WAL
// file; recovery must absorb every complete frame and ignore the torn
// tail without erroring.
func TestTornWALTailTolerated(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, Options{})
	for i := 0; i < 12; i++ {
		if _, err := s.Put(mkSeg("a", time.Duration(i)*time.Minute, 4)); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	crash(t, s)

	wals, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(wals) == 0 {
		t.Fatalf("no WAL files: %v", err)
	}
	newest := wals[len(wals)-1]
	f, err := os.OpenFile(newest, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatalf("open wal: %v", err)
	}
	// A frame header promising more bytes than exist.
	if _, err := f.Write([]byte{0xff, 0x00, 0x00, 0x00, 0x01, 0x02}); err != nil {
		t.Fatalf("append torn frame: %v", err)
	}
	f.Close()

	s2 := openTestStore(t, dir, Options{})
	defer s2.Close()
	if s2.Count() != 12 {
		t.Fatalf("count after torn-tail recovery: %d want 12", s2.Count())
	}
	// The store must remain writable past the torn tail.
	if _, err := s2.Put(mkSeg("a", 500*time.Minute, 4)); err != nil {
		t.Fatalf("put after torn-tail recovery: %v", err)
	}
	if err := s2.Flush(); err != nil {
		t.Fatalf("flush after torn-tail recovery: %v", err)
	}
	if s2.Count() != 13 {
		t.Fatalf("count: %d want 13", s2.Count())
	}
}

// TestMaintenanceErrorSurfaced checks that a background flush failure
// is visible in Stats rather than silently swallowed.
func TestMaintenanceErrorSurfaced(t *testing.T) {
	s := openTestStore(t, t.TempDir(), Options{})
	defer s.Close()
	s.crashHook = func(st string) error {
		if st == "flush.begin" {
			return fmt.Errorf("disk on fire")
		}
		return nil
	}
	s.noteMaintenanceErr("flush", s.flushOnce())
	st := s.Stats()
	if !strings.Contains(st.LastError, "disk on fire") {
		t.Fatalf("LastError = %q, want the flush failure", st.LastError)
	}
	s.crashHook = nil
}
