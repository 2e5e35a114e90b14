package walframe

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestLogAppendFoldClose walks a Log through its life: Open creates the
// file at 0600 and hands back what it holds, Append adds fsynced frames,
// a failed snapshot write leaves the log as it is, Fold empties it, and
// Append after Close fails.
func TestLogAppendFoldClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "control.log")
	l, data, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 0 || l.Len() != 0 {
		t.Fatalf("a new log holds %d bytes, Len %d", len(data), l.Len())
	}
	for _, body := range []string{"one", "two"} {
		if full, err := l.Append([]byte(body)); err != nil || full {
			t.Fatalf("Append(%s) = %v, %v", body, full, err)
		}
	}
	want := Append(Append(nil, []byte("one")), []byte("two"))
	if got, _ := os.ReadFile(path); !bytes.Equal(got, want) || l.Len() != int64(len(want)) {
		t.Fatalf("log holds %q (Len %d), want %q", got, l.Len(), want)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if perm := info.Mode().Perm(); perm != 0o600 {
		t.Errorf("log mode = %o, want 600", perm)
	}
	failed := errors.New("snapshot write failed")
	if err := l.Fold(failed); err != failed || l.Len() != int64(len(want)) {
		t.Fatalf("Fold after a failed snapshot write = %v, Len %d; want the write's error and the log kept", err, l.Len())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("late")); !errors.Is(err, os.ErrClosed) {
		t.Errorf("Append after Close = %v, want os.ErrClosed", err)
	}

	l, data, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if !bytes.Equal(data, want) || l.Len() != int64(len(want)) {
		t.Fatalf("reopened log holds %q (Len %d), want %q", data, l.Len(), want)
	}
	if err := l.Fold(nil); err != nil || l.Len() != 0 {
		t.Fatalf("Fold = %v, Len %d", err, l.Len())
	}
	if got, _ := os.ReadFile(path); len(got) != 0 {
		t.Errorf("folded log holds %d bytes", len(got))
	}
	if _, err := l.Append([]byte("three")); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, Append(nil, []byte("three"))) {
		t.Errorf("the frame after a fold landed at the wrong place: %q", got)
	}
}

// TestLogFullAtFoldBytes: the append that takes the log to FoldBytes
// reports it full.
func TestLogFullAtFoldBytes(t *testing.T) {
	l, _, err := Open(filepath.Join(t.TempDir(), "control.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if full, err := l.Append(make([]byte, FoldBytes-HeaderLen-1)); err != nil || full {
		t.Fatalf("an append a byte short of FoldBytes = %v, %v", full, err)
	}
	if full, err := l.Append(nil); err != nil || !full {
		t.Fatalf("the append that reaches FoldBytes = %v, %v; want full", full, err)
	}
}

// TestNilLog: an in-memory owner's nil *Log is empty and folds and
// closes as a no-op, returning a failed snapshot write as it is.
func TestNilLog(t *testing.T) {
	var l *Log
	failed := errors.New("snapshot write failed")
	if l.Len() != 0 || l.Fold(nil) != nil || l.Fold(failed) != failed || l.Close() != nil {
		t.Error("a nil *Log is not a no-op")
	}
}
