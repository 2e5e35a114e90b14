package segstore

import (
	"os"
	"path/filepath"
	"testing"
	"time"
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
