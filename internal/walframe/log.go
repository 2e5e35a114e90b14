package walframe

import (
	"io"
	"os"
	"path/filepath"
)

// FoldBytes is the size at which Append reports a Log full: at about 100
// bytes a cursor frame, some ten thousand acks.
const FoldBytes = 1 << 20

// Log is a control log: frames fsynced one by one, which the owner
// replays over a snapshot of its own at open and folds into it when full
// and on shutdown. A Log does no locking: the owner serialises every
// call, and a fold's snapshot write, under a mutex of its own. A nil
// *Log, an in-memory owner's, has Len 0, and Fold and Close do nothing.
type Log struct {
	f    *os.File // nil after Close
	size int64
}

// Open opens the log at path, creating it empty with mode 0600 and
// fsyncing its directory, and returns it with what it holds.
func Open(path string) (*Log, []byte, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o600)
	if err != nil {
		return nil, nil, err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &Log{f: f, size: int64(len(data))}, data, nil
}

// Append writes body's frame and fsyncs it, or fails with os.ErrClosed
// after Close. A failed write is cut back off, so the next frame does
// not land behind a torn one. full reports that the log has reached
// FoldBytes: the frame is durable, and the owner should fold.
func (l *Log) Append(body []byte) (full bool, err error) {
	if l.f == nil {
		return false, os.ErrClosed
	}
	frame := Append(make([]byte, 0, HeaderLen+len(body)), body)
	if _, err = l.f.Write(frame); err == nil {
		err = l.f.Sync()
	}
	if err != nil {
		_ = l.f.Truncate(l.size) // best effort; the append's error is what matters
		return false, err
	}
	l.size += int64(len(frame))
	return l.size >= FoldBytes, nil
}

// Len is the log's size in bytes.
func (l *Log) Len() int64 {
	if l == nil {
		return 0
	}
	return l.size
}

// Fold empties the log once the owner's snapshot holds every frame.
// saved is the result of that snapshot's write, log.Fold(s.saveState()),
// and a failed write leaves the log as it is, so every frame whose
// Append returned is in the snapshot or the log. A log a failed truncate
// leaves full replays over the snapshot; the last frame about anything
// is its newest state, so nothing moves back.
func (l *Log) Fold(saved error) error {
	if saved != nil || l.Len() == 0 {
		return saved
	}
	if err := l.f.Truncate(0); err != nil {
		return err
	}
	l.size = 0
	return l.f.Sync()
}

// Close closes the log as it stands: unfolded, as a failed open leaves it.
func (l *Log) Close() error {
	if l == nil || l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f, l.size = nil, 0
	return err
}

// syncDir makes a file's creation in dir durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
