package datastore

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"sort"

	"sensorsafe/internal/ruleindex"
	"sensorsafe/internal/stream"
	"sensorsafe/internal/walframe"
)

// The store's log keeps its control state durable between state.json
// writes. A control mutation (an account registered or its key rotated,
// a contributor's rules, places or groups changed) is a logRecord built
// from the current state and the request. It is appended as one
// walframe frame and fsynced, and only then applied, so a failed append
// changes nothing; replay applies state.json's accounts and policies and
// then every logged record with the same apply. Stream subscribes,
// unsubscribes and cursor advances are the one exception: the hub
// applies them first and then logs the subscription's state, so a lost
// cursor frame costs a redelivery, and replay merges those frames by
// max. Once the log reaches walframe.FoldBytes, and on Close, it is
// folded: state.json is rewritten and the log emptied. The file
// mechanics are walframe.Log's; logMu guards it and is the writer lock.

// cursorLogName is the log inside the store directory. It held only
// stream cursors when it was named, and keeps the name so those
// directories replay unchanged.
const cursorLogName = "cursors.log"

// logRecord is one frame's body: at least one of
//   - a subscription's durable state after a subscribe or cursor
//     advance, or its ID alone with Removed set after an unsubscribe;
//   - User, an account after its registration or key rotation;
//   - Policy, a contributor's policy and groups after its registration
//     or a rule, place or group change.
type logRecord struct {
	*stream.SubscriptionState
	Removed bool               `json:"removed,omitempty"`
	User    *persistedUser     `json:"user,omitempty"`
	Policy  *contributorRecord `json:"policy,omitempty"`
}

// contributorRecord is one contributor's slice of an (institutional)
// store under their normalized name, as the store holds it and its
// files store it. policy is State compiled: every rule or place change
// compiles a new one (with a fresh decision cache) at the next version
// and commits a new record, so a version bump can never serve a stale
// memoized decision. No applied record changes again, so a reader may
// keep one without a lock. Groups maps consumer name → group/study
// names, as assigned by this contributor (used by group-scoped rules).
type contributorRecord struct {
	Name string `json:"name"`
	persistedContributor
	policy *ruleindex.Index
}

// check reads a record from the log or state.json, the input replay does
// not trust, and compiles its policy. A record with none of its three
// parts, a subscription without an ID, an account without a name or a
// key, and a policy without a name or that does not compile are errors.
func (rec *logRecord) check() error {
	switch {
	case rec.SubscriptionState == nil && rec.User == nil && rec.Policy == nil,
		rec.SubscriptionState != nil && rec.ID == "",
		rec.User != nil && (normName(rec.User.Name) == "" || rec.User.Key == ""),
		rec.Policy != nil && rec.Policy.Name == "":
		return errors.New("bad record")
	}
	if rec.Policy != nil {
		var err error
		if rec.Policy.policy, err = ruleindex.Load(rec.Policy.State); err != nil {
			return fmt.Errorf("bad policy for %s: %w", rec.Policy.Name, err)
		}
	}
	return nil
}

// apply makes a record's account and policy live. It is the one write to
// them, for a live mutation and for replay alike, and it cannot fail:
// the mutation checked its request and check what replay read. A
// record's stream part is the hub's, which applied it before it was
// logged.
func (s *Service) apply(rec *logRecord) {
	if rec.User == nil && rec.Policy == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if p := rec.Policy; p != nil {
		s.contributors[p.Name] = p
	}
	if rec.User != nil {
		_ = s.users.Put(rec.User.user()) // refuses only a key another account holds, which no store writes
	}
}

// replay restores the store at open: the accounts and policies of st,
// state.json's snapshot, then every frame of the log, each checked and
// applied in turn. A record holds the whole state of what it names as
// it was when appended, so a later record is never older than an
// earlier one. Cursor frames merge into st.Subscriptions instead: into
// the subscription with their ID by the max of acked and next, so
// frames the snapshot already holds, or two acks whose frames landed out
// of order, never move a cursor back; a removal deletes the
// subscription. Every frame is fsynced before the next is written, so
// only the last can be torn: a bad Final frame is where a crash cut an
// append short, any other bad frame is an error. Callers hold s.logMu.
func (s *Service) replay(st *persistedState, data []byte) error {
	snap := make([]logRecord, 0, len(st.Users)+len(st.Contributors))
	for i := range st.Users {
		snap = append(snap, logRecord{User: &st.Users[i]})
	}
	for name, pc := range st.Contributors {
		if pc == nil {
			return fmt.Errorf("datastore: state: no policy for %s", name)
		}
		snap = append(snap, logRecord{Policy: &contributorRecord{Name: name, persistedContributor: *pc}})
	}
	for i := range snap {
		if err := snap[i].check(); err != nil {
			return fmt.Errorf("datastore: state: %w", err)
		}
		s.apply(&snap[i])
	}
	subs := make(map[string]stream.SubscriptionState, len(st.Subscriptions))
	for _, sub := range st.Subscriptions {
		subs[sub.ID] = sub
	}
	err := walframe.Scan(data, 1, func(off int, body []byte) error {
		var rec logRecord
		if err := json.Unmarshal(body, &rec); err != nil {
			return fmt.Errorf("bad record at %d", off)
		}
		if err := rec.check(); err != nil {
			return fmt.Errorf("%w at %d", err, off)
		}
		s.apply(&rec)
		if rec.SubscriptionState == nil {
			return nil
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
			subs[rec.ID] = *rec.SubscriptionState
		}
		return nil
	})
	var bad *walframe.BadFrame
	if err != nil && !(errors.As(err, &bad) && bad.Final) {
		return fmt.Errorf("datastore: cursor log: %w", err)
	}
	st.Subscriptions = make([]stream.SubscriptionState, 0, len(subs))
	for _, sub := range subs {
		st.Subscriptions = append(st.Subscriptions, sub)
	}
	sort.Slice(st.Subscriptions, func(i, j int) bool { return st.Subscriptions[i].ID < st.Subscriptions[j].ID })
	return nil
}

// commit appends rec as one frame and fsyncs it, then applies it. An
// in-memory store skips only the append, and a failed append applies
// nothing. The append that takes the log to walframe.FoldBytes folds it
// once rec is applied; the frame is durable either way, so a failed fold
// is logged and the next append tries again. A fold writes state.json
// under logMu, so every change whose call returned is in that
// state.json or in the log after it. Callers hold s.logMu, under which
// they read what rec is built from, and neither s.mu nor a hub lock.
func (s *Service) commit(rec *logRecord) error {
	full := false
	if s.log != nil {
		body, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		if full, err = s.log.Append(body); err != nil {
			return fmt.Errorf("datastore: cursor log: %w", err)
		}
		metricCursorLogFrames.Inc()
	}
	s.apply(rec)
	if full {
		if err := s.log.Fold(s.saveState()); err != nil {
			slog.Error("datastore: fold cursor log", "store", s.opts.Name, "err", err)
		}
	}
	return nil
}

// logCursor is the stream hub's OnChange hook: it logs the
// subscription's durable state, or its removal, read under logMu so
// frames about one subscription follow the order its changes took and
// none follows a removal. The hub has no caller to hand a failed append
// to, so it is logged and counted; the cursor then resumes from its last
// durable position and redelivers.
func (s *Service) logCursor(id string) {
	s.logMu.Lock()
	st, ok := s.stream.Subscription(id)
	st.ID = id
	err := s.commit(&logRecord{SubscriptionState: &st, Removed: !ok})
	s.logMu.Unlock()
	if err != nil {
		metricStateSaveErrors.Inc()
		slog.Error("datastore: append cursor log", "store", s.opts.Name, "err", err)
	}
}
