package segstore

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"sensorsafe/internal/resilience"
)

// Manifest: the atomically-swapped root of the on-disk state. Each save
// writes a new generation file manifest-%08d.json via WriteFileAtomic
// (temp + fsync + rename); loads pick the highest generation whose
// self-checksum verifies, falling back to the previous one when the
// newest is torn. Two generations are retained so a torn write of
// generation N still leaves a valid N-1.
//
// The manifest is the commit point for flush and compaction: a segment
// file exists logically once a manifest generation references it, and
// WAL records are replayed on restart only when their sequence exceeds
// FlushedSeq.

type manifest struct {
	Generation uint64     `json:"generation"`
	NextID     uint64     `json:"nextID"`     // next storage.ID to allocate
	NextFile   uint64     `json:"nextFile"`   // highest segment-file number issued
	FlushedSeq uint64     `json:"flushedSeq"` // WAL records ≤ this are in segment files
	Files      []fileMeta `json:"files"`
	Tombstones []uint64   `json:"tombstones,omitempty"` // deleted IDs not yet compacted away
	CRC        uint32     `json:"crc"`                  // crc32 of this JSON with CRC set to 0
}

func manifestName(gen uint64) string {
	return fmt.Sprintf("manifest-%08d.json", gen)
}

// segFileName is the name of segment file n; a manifest may name no
// other kind of file.
func segFileName(n uint64) string {
	return fmt.Sprintf("seg-%08d.seg", n)
}

// checkFiles rejects a generation naming a file segFileName would not
// produce: the names are untrusted input, and "../x.seg" would make Open
// serve, and the next compaction delete, a file outside the store.
func (m *manifest) checkFiles() error {
	for _, f := range m.Files {
		n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(f.Name, "seg-"), ".seg"), 10, 64)
		if err != nil || f.Name != segFileName(n) {
			return fmt.Errorf("names segment file %q", f.Name)
		}
	}
	return nil
}

func parseManifestName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "manifest-") || !strings.HasSuffix(name, ".json") {
		return 0, false
	}
	v, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "manifest-"), ".json"), 10, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// checksum computes the manifest's self-CRC (over the JSON encoding with
// the CRC field zeroed).
func (m *manifest) checksum() (uint32, error) {
	saved := m.CRC
	m.CRC = 0
	data, err := json.Marshal(m)
	m.CRC = saved
	if err != nil {
		return 0, err
	}
	return crc32.ChecksumIEEE(data), nil
}

// save writes the next generation and prunes generations older than the
// previous one.
func saveManifest(dir string, m *manifest) error {
	m.Generation++
	sum, err := m.checksum()
	if err != nil {
		return err
	}
	m.CRC = sum
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	if err := resilience.WriteFileAtomic(filepath.Join(dir, manifestName(m.Generation)), data, 0o600); err != nil {
		return fmt.Errorf("segstore: save manifest: %w", err)
	}
	// Prune all but the newest two generations; best effort.
	if gens, err := listManifestGens(dir); err == nil {
		for _, g := range gens {
			if g+1 < m.Generation {
				_ = os.Remove(filepath.Join(dir, manifestName(g)))
			}
		}
	}
	return nil
}

func listManifestGens(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var gens []uint64
	for _, e := range entries {
		if g, ok := parseManifestName(e.Name()); ok {
			gens = append(gens, g)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, nil
}

// loadManifest returns the newest manifest generation that passes its
// checksum and names only segment files, or nil when the directory holds
// none (fresh store). A torn or corrupt newest generation falls back to
// the one before it.
func loadManifest(dir string) (*manifest, error) {
	gens, err := listManifestGens(dir)
	if err != nil {
		return nil, err
	}
	var lastErr error
	for i := len(gens) - 1; i >= 0; i-- {
		path := filepath.Join(dir, manifestName(gens[i]))
		data, err := os.ReadFile(path)
		if err != nil {
			lastErr = err
			continue
		}
		var m manifest
		if err := json.Unmarshal(data, &m); err != nil {
			lastErr = fmt.Errorf("segstore: manifest %s: %w", manifestName(gens[i]), err)
			continue
		}
		sum, err := m.checksum()
		if err != nil {
			lastErr = err
			continue
		}
		if sum != m.CRC {
			lastErr = fmt.Errorf("segstore: manifest %s: checksum mismatch (torn write?)", manifestName(gens[i]))
			continue
		}
		if err := m.checkFiles(); err != nil {
			lastErr = fmt.Errorf("segstore: manifest %s: %w", manifestName(gens[i]), err)
			continue
		}
		return &m, nil
	}
	if len(gens) == 0 {
		return nil, nil
	}
	return nil, fmt.Errorf("segstore: no valid manifest among %d generations: %w", len(gens), lastErr)
}

// removeOrphans deletes segment files and leftover temporaries that the
// chosen manifest does not reference — debris from a crash between
// writing a file and committing the manifest.
func removeOrphans(dir string, m *manifest) {
	referenced := make(map[string]bool)
	if m != nil {
		for _, f := range m.Files {
			referenced[f.Name] = true
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			_ = os.Remove(filepath.Join(dir, name))
		case strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".seg") && !referenced[name]:
			_ = os.Remove(filepath.Join(dir, name))
		}
	}
}
