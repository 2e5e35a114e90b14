package segstore

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"sensorsafe/internal/storage"
	"sensorsafe/internal/walframe"
	"sensorsafe/internal/wavesegment"
)

// Write-ahead log. Ingest appends to the active WAL file before touching
// the memtable; a flush seals the active file (rotating to a new one) and,
// once the sealed records are durable in a segment file and the manifest
// records the flushed sequence number, sealed files are garbage-collected.
//
// Files are named wal-%016x.log by the sequence number of their first
// record, so replay order is lexical order. Each record is one walframe
// frame whose body is
//
//	typ byte | seq u64 | id u64 | payload
//
// where payload is empty for deletes and, for puts and appends, the
// MarshalBinary blob of the segment the caller passed to Put. A put
// creates record id; an append extends record id, its stream's newest
// memtable record, by the packet alone, so a growing stream tail is
// logged once, not rewritten on every upload. Replay rejects a put of an
// existing ID and an append that does not continue a memtable record; a
// binary that predates appends rejects the frame type rather than
// misreading it. Replay stops at the first torn or corrupt frame in the
// newest file (a crash mid-append) but treats corruption in older files
// as an error, since those were fsynced before the manifest advanced.

const (
	walRecPut    = 1
	walRecDelete = 2
	walRecAppend = 3

	walBodyMin = 1 + 8 + 8 // typ | seq | id
)

// walRecord is one replayed WAL entry.
type walRecord struct {
	typ  byte
	seq  uint64
	id   storage.ID
	seg  *wavesegment.Segment // nil for deletes
	size int                  // payload bytes
}

type walFile struct {
	name     string
	firstSeq uint64
	maxSeq   uint64 // highest sequence appended (0 when empty)
	bytes    int64
}

// wal manages the directory's log files. Not safe for concurrent use;
// the Store serializes access under its mutex.
type wal struct {
	dir    string
	f      *os.File // active file
	active walFile
	sealed []walFile
	sync   bool // fsync after every append
}

func walName(firstSeq uint64) string {
	return fmt.Sprintf("wal-%016x.log", firstSeq)
}

func parseWALName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	v, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// listWALFiles returns the directory's log files sorted by first
// sequence; replay walks them in this order.
func listWALFiles(dir string) ([]walFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var existing []walFile
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		first, ok := parseWALName(e.Name())
		if !ok {
			continue
		}
		wf := walFile{name: e.Name(), firstSeq: first}
		if fi, err := e.Info(); err == nil {
			wf.bytes = fi.Size()
		}
		existing = append(existing, wf)
	}
	sort.Slice(existing, func(i, j int) bool { return existing[i].firstSeq < existing[j].firstSeq })
	return existing, nil
}

// newWAL opens a fresh active file starting at nextSeq; replayed files
// (already applied) are handed over as sealed so gc can reclaim them
// once a flush covers their sequences.
func newWAL(dir string, nextSeq uint64, syncEvery bool, sealed []walFile) (*wal, error) {
	w := &wal{dir: dir, sync: syncEvery, sealed: sealed}
	if err := w.rotate(nextSeq); err != nil {
		return nil, err
	}
	return w, nil
}

// rotate seals the active file (if any) and starts a new one whose first
// record will carry firstSeq. On error the active file stays active and
// the new one is gone.
func (w *wal) rotate(firstSeq uint64) error {
	if w.f != nil && w.active.firstSeq == firstSeq {
		return nil // no record since the active file started
	}
	if w.f != nil {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("segstore: seal wal: %w", err)
		}
	}
	name := walName(firstSeq)
	path := filepath.Join(w.dir, name)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o600)
	if err != nil {
		return fmt.Errorf("segstore: open wal %s: %w", name, err)
	}
	if err := syncDir(w.dir); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	if w.f != nil {
		// Synced above, so a failed close loses no record.
		_ = w.f.Close()
		w.sealed = append(w.sealed, w.active)
	}
	w.f = f
	w.active = walFile{name: name, firstSeq: firstSeq}
	return nil
}

// walFrame encodes one record in the frame format above.
func walFrame(typ byte, seq uint64, id storage.ID, payload []byte) []byte {
	body := make([]byte, 0, walBodyMin+len(payload))
	body = append(body, typ)
	body = putUint64(body, seq)
	body = putUint64(body, uint64(id))
	body = append(body, payload...)
	return walframe.Append(make([]byte, 0, walframe.HeaderLen+len(body)), body)
}

// append durably logs one record. The frame is written in one Write call
// so a crash tears at most the final frame.
func (w *wal) append(typ byte, seq uint64, id storage.ID, payload []byte) error {
	frame := walFrame(typ, seq, id, payload)
	if _, err := w.f.Write(frame); err != nil {
		return fmt.Errorf("segstore: wal append: %w", err)
	}
	if w.sync {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("segstore: wal sync: %w", err)
		}
	}
	w.active.maxSeq = seq
	w.active.bytes += int64(len(frame))
	return nil
}

func (w *wal) fsync() error {
	if w.f == nil {
		return nil
	}
	return w.f.Sync()
}

// gc removes sealed files whose newest record is already covered by the
// manifest's flushed sequence, then makes the removals durable.
func (w *wal) gc(flushedSeq uint64) error {
	kept := w.sealed[:0]
	removed := 0
	for _, wf := range w.sealed {
		if wf.maxSeq != 0 && wf.maxSeq <= flushedSeq {
			if err := os.Remove(filepath.Join(w.dir, wf.name)); err == nil || errors.Is(err, os.ErrNotExist) {
				removed++
				continue
			}
		}
		kept = append(kept, wf)
	}
	w.sealed = kept
	if removed > 0 {
		return syncDir(w.dir)
	}
	return nil
}

func (w *wal) close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// replayWALFile streams one log file's records through fn. last marks
// the newest file: a torn or corrupt frame there is a clean crash point
// and replay just stops; anywhere else it is corruption and an error.
func replayWALFile(dir string, wf *walFile, last bool, fn func(walRecord) error) error {
	path := filepath.Join(dir, wf.name)
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("segstore: read wal %s: %w", wf.name, err)
	}
	wf.bytes = int64(len(data))
	err = walframe.Scan(data, walBodyMin, func(off int, body []byte) error {
		recd := walRecord{typ: body[0]}
		br := &byteReader{data: body, off: 1}
		recd.seq = br.uint64()
		recd.id = storage.ID(br.uint64())
		switch recd.typ {
		case walRecPut, walRecAppend:
			seg, err := wavesegment.UnmarshalBinary(body[br.off:])
			if err != nil {
				return fmt.Errorf("segstore: wal %s: bad segment payload at %d: %w", wf.name, off, err)
			}
			recd.seg = seg
			recd.size = len(body) - br.off
		case walRecDelete:
		default:
			return fmt.Errorf("segstore: wal %s: unknown record type %d at %d", wf.name, recd.typ, off)
		}
		if br.err != nil {
			return fmt.Errorf("segstore: wal %s: %w", wf.name, br.err)
		}
		if recd.seq > wf.maxSeq {
			wf.maxSeq = recd.seq
		}
		return fn(recd)
	})
	var bad *walframe.BadFrame
	switch {
	case errors.As(err, &bad):
		if last {
			return nil
		}
		return fmt.Errorf("segstore: wal %s: %w", wf.name, err)
	case errors.Is(err, io.EOF):
		return nil
	}
	return err
}
