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
// writes. Every control mutation (an account registered or its key
// rotated, a contributor's rules, places or groups changed) and every
// stream subscribe, unsubscribe and cursor advance appends one walframe
// frame with the new state of what it changed, and fsyncs it before the
// call returns. Restart reads state.json as the snapshot and replays the
// log over it. Once the log reaches walframe.FoldBytes, and on Close, it
// is folded: state.json is rewritten and the log emptied. The file
// mechanics are walframe.Log's; logMu guards it.

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

// contributorRecord is a contributor's stored form under its normalized
// name.
type contributorRecord struct {
	Name string `json:"name"`
	persistedContributor
}

// replayLog applies the log's frames, in order, to a state.json snapshot.
// Users and contributors are last-writer-wins: a frame holds the whole
// state of what it names as it was when appended, so a later frame is
// never older than an earlier one. A cursor frame merges into the
// subscription with its ID by the max of acked and next, so frames the
// snapshot already holds, or two acks whose frames landed out of order,
// never move a cursor back; a removal deletes the subscription. Every
// frame is fsynced before the next is written, so only the last can be
// torn: a bad Final frame is where a crash cut an append short, any
// other bad frame, a frame with none of the three, and a policy that
// does not compile are errors.
func replayLog(st *persistedState, data []byte) error {
	users := make(map[string]persistedUser, len(st.Users))
	for _, u := range st.Users {
		users[normName(u.Name)] = u
	}
	subs := make(map[string]stream.SubscriptionState, len(st.Subscriptions))
	for _, sub := range st.Subscriptions {
		subs[sub.ID] = sub
	}
	if st.Contributors == nil {
		st.Contributors = make(map[string]*persistedContributor)
	}
	err := walframe.Scan(data, 1, func(off int, body []byte) error {
		var rec logRecord
		if err := json.Unmarshal(body, &rec); err != nil ||
			rec.SubscriptionState == nil && rec.User == nil && rec.Policy == nil ||
			rec.SubscriptionState != nil && rec.ID == "" ||
			rec.Policy != nil && rec.Policy.Name == "" {
			return fmt.Errorf("bad record at %d", off)
		}
		if rec.Policy != nil {
			if _, err := ruleindex.Load(rec.Policy.State); err != nil {
				return fmt.Errorf("bad policy for %s at %d: %w", rec.Policy.Name, off, err)
			}
			st.Contributors[rec.Policy.Name] = &rec.Policy.persistedContributor
		}
		if rec.User != nil {
			users[normName(rec.User.Name)] = *rec.User
		}
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
	st.Users = st.Users[:0]
	for _, u := range users {
		st.Users = append(st.Users, u)
	}
	sort.Slice(st.Users, func(i, j int) bool { return st.Users[i].Name < st.Users[j].Name })
	st.Subscriptions = make([]stream.SubscriptionState, 0, len(subs))
	for _, sub := range subs {
		st.Subscriptions = append(st.Subscriptions, sub)
	}
	sort.Slice(st.Subscriptions, func(i, j int) bool { return st.Subscriptions[i].ID < st.Subscriptions[j].ID })
	return nil
}

// logChange appends one frame, built by read from the store's current
// state, and fsyncs it. read runs under logMu, so frames about one thing
// follow the order its changes took, none follows a removal, and the
// last frame about it is its newest state. Callers hold neither s.mu nor
// a hub lock: a fold may run before logChange returns. The append that
// takes the log to walframe.FoldBytes folds it; the frame is durable
// either way, so a failed fold is logged and the next append tries again.
// A fold writes state.json under logMu, so every change whose call
// returned is in that state.json or in the log after it.
func (s *Service) logChange(read func(rec *logRecord) error) error {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	if s.log == nil {
		return nil // in-memory store
	}
	var rec logRecord
	if err := read(&rec); err != nil {
		return err
	}
	body, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	full, err := s.log.Append(body)
	if err != nil {
		return fmt.Errorf("datastore: cursor log: %w", err)
	}
	metricCursorLogFrames.Inc()
	if full {
		if err := s.log.Fold(s.saveState()); err != nil {
			slog.Error("datastore: fold cursor log", "store", s.opts.Name, "err", err)
		}
	}
	return nil
}

// logCursor is the stream hub's OnChange hook: it logs the
// subscription's durable state, or its removal. The hub has no caller to
// hand a failed append to, so it is logged and counted; the cursor then
// resumes from its last durable position and redelivers.
func (s *Service) logCursor(id string) {
	err := s.logChange(func(rec *logRecord) error {
		st, ok := s.stream.Subscription(id)
		st.ID = id
		rec.SubscriptionState, rec.Removed = &st, !ok
		return nil
	})
	if err != nil {
		metricStateSaveErrors.Inc()
		slog.Error("datastore: append cursor log", "store", s.opts.Name, "err", err)
	}
}

// logControl logs a control mutation before it returns: the account
// named user, the policy and groups of the contributor named
// contributor, or both; a name left "" is not logged.
func (s *Service) logControl(user, contributor string) error {
	return s.logChange(func(rec *logRecord) error {
		if user != "" {
			u, ok := s.users.SnapshotUser(user)
			if !ok {
				return fmt.Errorf("%w: %s", ErrUnknownUser, user)
			}
			rec.User = userRecord(u)
		}
		if contributor == "" {
			return nil
		}
		s.mu.RLock()
		defer s.mu.RUnlock()
		cs, err := s.stateLocked(contributor)
		if err != nil {
			return err
		}
		pc, err := cs.persisted()
		rec.Policy = &contributorRecord{Name: normName(contributor), persistedContributor: pc}
		return err
	})
}
