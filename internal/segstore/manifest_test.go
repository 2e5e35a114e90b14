package segstore

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sensorsafe/internal/storage"
)

// flushedStore writes a store in dir holding one flushed segment file
// and returns its manifest.
func flushedStore(t testing.TB, dir string, contributor string) *manifest {
	t.Helper()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Put(mkSeg(contributor, time.Duration(i)*time.Hour, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s.mu.RLock()
	m := *s.man
	m.Files = append([]fileMeta(nil), s.man.Files...)
	s.mu.RUnlock()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return &m
}

// writeGeneration commits m as the next manifest generation, with a
// valid checksum.
func writeGeneration(t testing.TB, dir string, m *manifest) {
	t.Helper()
	m.Generation++
	sum, err := m.checksum()
	if err != nil {
		t.Fatal(err)
	}
	m.CRC = sum
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName(m.Generation)), data, 0o600); err != nil {
		t.Fatal(err)
	}
}

// TestManifestRejectsPathTraversal: a generation with a valid checksum
// that names "../outside.seg" is corrupt. Open falls back to the previous
// generation instead of serving the outside file's records, and
// compaction leaves the outside file alone.
func TestManifestRejectsPathTraversal(t *testing.T) {
	root := t.TempDir()
	// A real segment file, holding mallory's records, outside the store.
	other := flushedStore(t, filepath.Join(root, "other"), "mallory")
	outside := filepath.Join(root, "outside.seg")
	data, err := os.ReadFile(filepath.Join(root, "other", other.Files[0].Name))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(outside, data, 0o600); err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(root, "store")
	m := flushedStore(t, dir, "alice")
	evil := other.Files[0]
	evil.Name = "../outside.seg"
	m.Files = append(m.Files, evil)
	writeGeneration(t, dir, m)

	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.ScanRefs(storage.Query{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Segment.Contributor != "alice" {
			t.Fatalf("store serves %s's record from outside its directory", r.Segment.Contributor)
		}
	}
	if len(res) != 3 {
		t.Errorf("scan = %d records, want alice's 3 from the previous generation", len(res))
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(outside); err != nil || !bytes.Equal(got, data) {
		t.Errorf("file outside the store changed or removed: %v", err)
	}
}

// FuzzManifest commits arbitrary manifest JSON, with its checksum
// recomputed, beside a real segment file and opens the store. Open may
// refuse it, but must not panic or touch a path outside the store
// directory, and a store that opens must scan.
func FuzzManifest(f *testing.F) {
	seedDir := f.TempDir()
	m := flushedStore(f, seedDir, "a")
	segName := m.Files[0].Name
	segData, err := os.ReadFile(filepath.Join(seedDir, segName))
	if err != nil {
		f.Fatal(err)
	}
	seed := func(m *manifest) {
		data, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	seed(m)
	bad := *m
	bad.Files = []fileMeta{m.Files[0], m.Files[0]}
	bad.Files[1].Name = "../outside.seg"
	seed(&bad)
	bad.Files = []fileMeta{m.Files[0], m.Files[0]}
	seed(&bad)
	bad.Files = []fileMeta{m.Files[0]}
	bad.Files[0].Records, bad.Files[0].MaxID, bad.Tombstones = 1<<30, 1<<62, []uint64{1, 1, 9}
	seed(&bad)
	f.Add([]byte(`{"generation":3,"nextID":1,"files":[{"name":"seg-1.seg"}]}`))
	f.Add([]byte(`{}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var m manifest
		if json.Unmarshal(data, &m) != nil {
			return
		}
		root := t.TempDir()
		dir := filepath.Join(root, "store")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		outside := filepath.Join(root, "outside.seg")
		for _, p := range []string{filepath.Join(dir, segName), outside} {
			if err := os.WriteFile(p, segData, 0o600); err != nil {
				t.Fatal(err)
			}
		}
		m.Generation-- // writeGeneration commits it at the fuzzed number
		writeGeneration(t, dir, &m)

		if s, err := Open(Options{Dir: dir}); err == nil {
			if _, err := s.ScanRefs(storage.Query{}); err != nil {
				t.Errorf("opened store does not scan: %v", err)
			}
			_ = s.Close()
		}
		entries, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 2 {
			t.Errorf("outside the store directory: %v, want only store/ and outside.seg", entries)
		}
		if got, err := os.ReadFile(outside); err != nil || !bytes.Equal(got, segData) {
			t.Errorf("file outside the store changed or removed: %v", err)
		}
	})
}
