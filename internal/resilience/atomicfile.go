package resilience

import (
	"fmt"
	"os"
	"path/filepath"
)

// WriteFileAtomic writes data to path so that a crash at any instant
// leaves either the old content or the new content, never a torn mix:
// write to a temp file in the same directory, fsync it, rename over the
// target, then fsync the directory so the rename itself is durable. The
// temp name is deterministic (path + ".tmp") so a crash leaves at most one
// stray file, which the next write replaces.
//
// An error from the directory sync comes after the rename: path already
// holds data, and only a crash may still roll it back. So an error does
// not mean path is unchanged, and a caller must not undo what the new
// content refers to.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return fmt.Errorf("resilience: create %s: %w", tmp, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("resilience: write %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("resilience: fsync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("resilience: close %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("resilience: commit %s: %w", path, err)
	}
	// Make the rename durable.
	d, err := os.Open(filepath.Dir(path))
	if err == nil {
		err = d.Sync()
		if cerr := d.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("resilience: sync dir of %s: %w", path, err)
	}
	return nil
}
