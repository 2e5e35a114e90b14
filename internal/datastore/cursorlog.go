package datastore

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"

	"sensorsafe/internal/stream"
	"sensorsafe/internal/walframe"
)

// The cursor log keeps stream subscriptions durable between state.json
// rewrites. Every subscribe, unsubscribe and cursor advance appends one
// walframe frame to it and fsyncs it before the hub call returns, instead
// of rewriting the whole state file. Restart reads state.json's
// subscriptions as the snapshot and replays the log over it. Once the log
// passes cursorLogFoldBytes, and on Close, it is folded: state.json is
// rewritten and the log emptied.

// cursorLogName is the cursor log inside the store directory.
const cursorLogName = "cursors.log"

// cursorLogFoldBytes is the log size past which a background fold writes
// state.json and empties the log: at about 100 bytes a frame, some ten
// thousand acks.
const cursorLogFoldBytes = 1 << 20

// cursorRecord is one frame's body: a subscription's durable state after
// a subscribe or cursor advance, or its ID alone with Removed set after
// an unsubscribe.
type cursorRecord struct {
	stream.SubscriptionState
	Removed bool `json:"removed,omitempty"`
}

// replayCursorLog applies the log's frames, in order, to the
// subscriptions of a state.json snapshot and returns the result sorted by
// ID. A frame merges into the subscription with its ID by the max of
// acked and next, so frames the snapshot already holds, or two acks
// whose frames landed out of order, never move a cursor back; a removal
// deletes the subscription. Every frame is fsynced before the next is
// written, so only the last can be torn: a bad Final frame is where a
// crash cut an append short, any other bad frame is an error.
func replayCursorLog(snap []stream.SubscriptionState, data []byte) ([]stream.SubscriptionState, error) {
	subs := make(map[string]stream.SubscriptionState, len(snap))
	for _, st := range snap {
		subs[st.ID] = st
	}
	err := walframe.Scan(data, 1, func(off int, body []byte) error {
		var rec cursorRecord
		if err := json.Unmarshal(body, &rec); err != nil || rec.ID == "" {
			return fmt.Errorf("bad record at %d", off)
		}
		cur, ok := subs[rec.ID]
		switch {
		case rec.Removed:
			delete(subs, rec.ID)
		case ok:
			cur.Acked = max(cur.Acked, rec.Acked)
			cur.Next = max(cur.Next, rec.Next)
			subs[rec.ID] = cur
		default:
			subs[rec.ID] = rec.SubscriptionState
		}
		return nil
	})
	var bad *walframe.BadFrame
	if err != nil && !(errors.As(err, &bad) && bad.Final) {
		return nil, fmt.Errorf("datastore: cursor log: %w", err)
	}
	out := make([]stream.SubscriptionState, 0, len(subs))
	for _, st := range subs {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// openCursorLog opens the directory's cursor log for appending, creating
// it empty, and returns what it holds.
func (s *Service) openCursorLog() ([]byte, error) {
	f, err := os.OpenFile(filepath.Join(s.opts.Dir, cursorLogName), os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o600)
	if err != nil {
		return nil, fmt.Errorf("datastore: open cursor log: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("datastore: read cursor log: %w", err)
	}
	if d, err := os.Open(s.opts.Dir); err == nil { // make a new file's name durable
		_ = d.Sync()
		d.Close()
	}
	s.logMu.Lock()
	s.cursorLog, s.logBytes = f, int64(len(data))
	s.logMu.Unlock()
	return data, nil
}

// logCursor is the stream hub's OnChange hook. It appends one frame with
// the subscription's durable state, or its removal, and fsyncs it before
// the hub call returns. The state is read under logMu, so a
// subscription's frames follow the hub's order and none follows its
// removal. The hub has no caller to hand a failed append to, so it is
// logged and counted; the cursor then resumes from its last durable
// position and redelivers.
func (s *Service) logCursor(id string) {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	if s.cursorLog == nil { // in-memory store, or closed
		return
	}
	rec := cursorRecord{SubscriptionState: stream.SubscriptionState{ID: id}, Removed: true}
	if st, ok := s.stream.Subscription(id); ok {
		rec = cursorRecord{SubscriptionState: st}
	}
	if err := s.appendCursorLocked(rec); err != nil {
		metricStateSaveErrors.Inc()
		slog.Error("datastore: append cursor log", "store", s.opts.Name, "err", err)
	}
}

// appendCursorLocked writes and fsyncs one frame; callers hold s.logMu.
// A failed write is cut back off the log, so the next frame does not
// land behind a torn one.
func (s *Service) appendCursorLocked(rec cursorRecord) error {
	body, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	frame := walframe.Append(make([]byte, 0, walframe.HeaderLen+len(body)), body)
	if _, err = s.cursorLog.Write(frame); err == nil {
		err = s.cursorLog.Sync()
	}
	if err != nil {
		_ = s.cursorLog.Truncate(s.logBytes) // best effort; the append's error is what matters
		return err
	}
	s.logBytes += int64(len(frame))
	metricCursorLogFrames.Inc()
	if s.logBytes >= cursorLogFoldBytes {
		select {
		case s.foldKick <- struct{}{}:
		default: // a fold is already due
		}
	}
	return nil
}

// foldLoop folds the cursor log whenever an append pushes it past
// cursorLogFoldBytes, until the service context ends.
func (s *Service) foldLoop() {
	defer close(s.foldDone)
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-s.foldKick:
			if err := s.foldCursorLog(); err != nil {
				slog.Error("datastore: fold cursor log", "store", s.opts.Name, "err", err)
			}
		}
	}
}

// foldCursorLog folds a log that holds frames. New calls it too, so a
// torn tail a crash left never sits in front of the next frame.
func (s *Service) foldCursorLog() error {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	if s.logBytes == 0 {
		return nil
	}
	return s.foldLocked()
}

// foldLocked writes state.json, whose subscriptions then hold every
// logged change, and empties the log; callers hold s.logMu. Doing both
// under logMu means every advance whose call returned is either in that
// state.json or in the log after it. A log a failed truncate leaves full
// only replays changes state.json already holds.
func (s *Service) foldLocked() error {
	if err := s.saveState(); err != nil {
		return err
	}
	if s.logBytes == 0 {
		return nil
	}
	if err := s.cursorLog.Truncate(0); err != nil {
		return fmt.Errorf("datastore: empty cursor log: %w", err)
	}
	if err := s.cursorLog.Sync(); err != nil {
		return fmt.Errorf("datastore: empty cursor log: %w", err)
	}
	s.logBytes = 0
	return nil
}

// closeCursorLog writes state.json a last time, empties the log and
// closes it; a hub change after Close is no longer logged.
func (s *Service) closeCursorLog() error {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	err := s.foldLocked()
	if s.cursorLog != nil {
		if cerr := s.cursorLog.Close(); err == nil {
			err = cerr
		}
		s.cursorLog = nil
	}
	return err
}

// discardCursorLog closes the log without folding it, for a New that
// fails and must leave the directory as it found it.
func (s *Service) discardCursorLog() {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	if s.cursorLog != nil {
		s.cursorLog.Close()
		s.cursorLog = nil
	}
}
