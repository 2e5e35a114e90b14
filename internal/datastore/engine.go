package datastore

import (
	"fmt"
	"os"
	"path/filepath"

	"sensorsafe/internal/segstore"
	"sensorsafe/internal/storage"
)

// openEngine picks the segment backend: persistent services get the
// columnar LSM engine (internal/segstore), in-memory services the
// ordered in-memory index (internal/storage).
func openEngine(opts Options) (storage.Engine, error) {
	if opts.Dir == "" {
		return storage.NewMemory(opts.MaxSegmentSamples), nil
	}
	// A directory written before segstore keeps every segment in a flat
	// segments.wal that nothing reads any more: refuse it, naming the
	// file, rather than come up as an empty store.
	old := filepath.Join(opts.Dir, "segments.wal")
	if _, err := os.Stat(old); err == nil {
		return nil, fmt.Errorf("datastore: %s is a pre-segstore segment log this version cannot read; migrate the directory with an earlier release, or move the file away to start empty", old)
	}
	dir := opts.SegstoreDir
	if dir == "" {
		dir = filepath.Join(opts.Dir, "segstore")
	}
	return segstore.Open(segstore.Options{
		Dir:               dir,
		MemtableBytes:     opts.MemtableBytes,
		CompactInterval:   opts.CompactInterval,
		MaxSegmentSamples: opts.MaxSegmentSamples,
	})
}
