package segstore

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"sensorsafe/internal/storage"
	"sensorsafe/internal/wavesegment"
)

// TestCorruptWALTailTolerated flips a byte inside the last frame of the
// active WAL file — a complete frame whose CRC no longer matches, which
// TestTornWALTailTolerated's short frame does not reach. Recovery must
// keep every frame before it, drop the corrupt one, and stay writable.
func TestCorruptWALTailTolerated(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, Options{})
	for i := 0; i < 3; i++ {
		if _, err := s.Put(mkSeg("a", time.Duration(i)*time.Minute, 10)); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	crash(t, s)

	wals, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(wals) == 0 {
		t.Fatalf("no WAL files: %v", err)
	}
	newest := wals[len(wals)-1]
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatalf("read wal: %v", err)
	}
	data[len(data)-5] ^= 0xFF
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatalf("write wal: %v", err)
	}

	s2 := openTestStore(t, dir, Options{})
	defer s2.Close()
	if s2.Count() != 2 {
		t.Fatalf("count after corrupt-tail recovery: %d want 2", s2.Count())
	}
	if _, err := s2.Put(mkSeg("a", time.Hour, 10)); err != nil {
		t.Fatalf("put after corrupt-tail recovery: %v", err)
	}
}

// FuzzWALReplay treats the newest WAL file as untrusted input: arbitrary
// bytes after a store with one flushed record. Open may refuse them but
// must never panic, and a store it opens must count exactly what it
// scans. Seeds cover put, append and delete frames, an append to an
// unknown ID, a duplicate put, a put reusing the flushed ID, and a torn
// frame.
func FuzzWALReplay(f *testing.F) {
	packet := func(off time.Duration) []byte {
		b, err := wavesegment.MarshalBinary(mkSeg("a", off, 4))
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	frames := func(fs ...[]byte) []byte {
		var out []byte
		for _, fr := range fs {
			out = append(out, fr...)
		}
		return out
	}
	// The base store flushes record 1 at sequence 1; frames beyond it replay.
	put := walFrame(walRecPut, 2, 2, packet(time.Hour))
	f.Add(frames(put, walFrame(walRecAppend, 3, 2, packet(time.Hour+4*time.Second)), walFrame(walRecDelete, 4, 1, nil)))
	f.Add(frames(put, walFrame(walRecDelete, 3, 2, nil), walFrame(walRecAppend, 4, 2, packet(time.Hour+4*time.Second))))
	f.Add(walFrame(walRecAppend, 2, 9, packet(time.Hour)))
	f.Add(frames(put, walFrame(walRecPut, 3, 2, packet(2*time.Hour))))
	f.Add(walFrame(walRecPut, 2, 1, packet(time.Hour)))
	f.Add(frames(put, walFrame(walRecAppend, 3, 2, packet(3*time.Hour))))
	f.Add(put[:len(put)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		s := openTestStore(t, dir, Options{})
		if _, err := s.Put(mkSeg("a", 0, 4)); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, walName(1<<40)), data, 0o600); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(Options{Dir: dir})
		if err != nil {
			return
		}
		defer s2.Close()
		res, err := s2.ScanRefs(storage.Query{})
		if err != nil {
			t.Fatalf("scan after replay: %v", err)
		}
		if s2.Count() != len(res) {
			t.Fatalf("Count() = %d but Scan returns %d records", s2.Count(), len(res))
		}
	})
}
