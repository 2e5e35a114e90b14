package broker

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"os"
	"path/filepath"
	"sort"

	"sensorsafe/internal/auth"
	"sensorsafe/internal/resilience"
	"sensorsafe/internal/ruleindex"
	"sensorsafe/internal/walframe"
)

// Broker persistence: the directory of contributors with their rule
// replicas, consumer accounts with vaulted per-store keys, saved lists,
// and study membership all survive restarts in two files. A mutation is
// a frame, a persistedBrokerState of the entries it changes as they are
// to be. The mutation builds it from the current state and the request,
// appends it to broker.log (a walframe.Log) and fsyncs it, and only then
// applies it, so a failed append changes nothing. Replay applies the
// state file and then every logged frame with the same apply. Only a
// fold of the log writes the JSON state file, atomically: when the log
// is full, at open after a crash, and on Close. Store connections (live
// StoreConn handles) are re-registered by the stores at startup.

const stateFileName, logName = "broker_state.json", "broker.log"

type persistedBrokerState struct {
	Users        []auth.User                 `json:"users"`
	Contributors map[string]contributorEntry `json:"contributors"`
	Consumers    map[string]consumerEntry    `json:"consumers"`
	Studies      map[string][]string         `json:"studies"`
	// StudyRosters holds each study's enrolled contributor cohort (display
	// names; map keys re-derive by normalization on load).
	StudyRosters map[string][]string `json:"studyRosters,omitempty"`
}

// frame returns an empty frame. Its maps are made so that none encodes
// as null, which a broker that decodes frames over its snapshot, as
// earlier versions did, would read as clearing that map.
func frame() *persistedBrokerState {
	return &persistedBrokerState{
		Contributors: make(map[string]contributorEntry),
		Consumers:    make(map[string]consumerEntry),
		Studies:      make(map[string][]string),
	}
}

// NewPersistent opens a broker whose state survives restarts in dir.
func NewPersistent(dir string) (*Service, error) {
	if dir == "" {
		return New(), nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("broker: create dir: %w", err)
	}
	s := New()
	s.dir = dir
	s.logMu.Lock()
	defer s.logMu.Unlock()
	err := s.loadState()
	if err == nil && s.log.Len() > 0 { // so a torn tail never sits in front of the next frame
		err = s.log.Fold(s.saveState())
	}
	if err != nil {
		s.log.Close() // unfolded: the directory stays as it was found
		return nil, err
	}
	return s, nil
}

// Close folds the log into one last state-file write and closes it: a
// mutation after Close fails on a persistent broker.
func (s *Service) Close() error {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	return errors.Join(s.log.Fold(s.saveState()), s.log.Close())
}

// commit makes one mutation's frame durable and then live: it appends f
// and fsyncs it, then applies it. An in-memory broker skips only the
// append, and a failed append applies nothing. The append that fills
// the log folds it once f is applied; the frame is durable either way,
// so a failed fold is logged and the next append tries again. Callers
// hold s.logMu, under which they read what f is built from, and not
// s.mu.
func (s *Service) commit(f *persistedBrokerState) error {
	full := false
	if s.log != nil {
		body, err := json.Marshal(f)
		if err != nil {
			return err
		}
		if full, err = s.log.Append(body); err != nil {
			return fmt.Errorf("broker: append log: %w", err)
		}
	}
	s.mu.Lock()
	s.applyLocked(f)
	s.mu.Unlock()
	if full {
		if err := s.log.Fold(s.saveState()); err != nil {
			slog.Error("broker: fold log", "err", err)
		}
	}
	return nil
}

// applyLocked installs each entry f holds in place of the current one:
// the one write to the broker's state, for a live mutation and replay
// alike. It cannot fail, since the mutation checked its request and
// decode what replay read. No map or slice of an applied entry changes
// again; a consumer entry is overwritten in place, since callers keep
// one across s.mu. Callers hold s.mu.
func (s *Service) applyLocked(f *persistedBrokerState) {
	for key, e := range f.Contributors {
		s.contributors[key] = &e
	}
	for key, e := range f.Consumers {
		if cur := s.consumers[key]; cur != nil {
			*cur = e
		} else {
			s.consumers[key] = &e
		}
	}
	for study, consumers := range f.Studies {
		set := make(map[string]bool, len(consumers))
		for _, c := range consumers {
			set[c] = true
		}
		s.studies[study] = set
	}
	for study, names := range f.StudyRosters {
		roster := make(map[string]string, len(names))
		for _, n := range names {
			roster[norm(n)] = n
		}
		s.rosters[study] = roster
	}
	for _, u := range f.Users {
		_ = s.users.Put(u) // refuses only a key another account holds, which no broker writes
	}
	metricDirectorySize.Set(float64(len(s.contributors)))
	s.recomputeStaleLocked()
}

// decode reads a frame from the state file or the log, the input replay
// does not trust: it refuses an account without a name or a key and
// compiles every replica, so a policy ruleindex.Load refuses fails the
// open.
func decode(data []byte) (*persistedBrokerState, error) {
	var f persistedBrokerState
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, err
	}
	for _, u := range f.Users {
		if norm(u.Name) == "" || u.Key == "" {
			return nil, fmt.Errorf("account %q without name or key", u.Name)
		}
	}
	for key, e := range f.Contributors {
		var err error
		if e.policy, err = ruleindex.Load(e.State); err != nil {
			return nil, fmt.Errorf("replica for %s: %w", e.Name, err)
		}
		f.Contributors[key] = e
	}
	return &f, nil
}

// saveState writes the state file. Its one caller is the fold, which
// holds s.logMu and not s.mu.
func (s *Service) saveState() error {
	if s.dir == "" {
		return nil
	}
	st, err := s.snapshotState()
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return fmt.Errorf("broker: encode state: %w", err)
	}
	if err := resilience.WriteFileAtomic(filepath.Join(s.dir, stateFileName), data, 0o600); err != nil {
		return fmt.Errorf("broker: write state: %w", err)
	}
	return nil
}

// snapshotState returns the state in its stored form, each replica's
// State as its policy gives it.
func (s *Service) snapshotState() (*persistedBrokerState, error) {
	st := frame()
	st.Users = s.users.Snapshot()
	s.mu.RLock()
	defer s.mu.RUnlock()
	for key, e := range s.contributors {
		ps, err := e.policy.State()
		if err != nil {
			return nil, err
		}
		st.Contributors[key] = contributorEntry{Name: e.Name, StoreAddr: e.StoreAddr, State: ps, StoreVersion: e.StoreVersion}
	}
	for key, e := range s.consumers {
		st.Consumers[key] = *e
	}
	for study, set := range s.studies {
		st.Studies[study] = members(set)
	}
	for study, roster := range s.rosters {
		if st.StudyRosters == nil {
			st.StudyRosters = make(map[string][]string)
		}
		st.StudyRosters[study] = rosterNames(roster)
	}
	return st, nil
}

// contributorLocked returns a copy of the named contributor's entry for a
// mutation to change, or a new one with the empty policy and ok false.
// Callers hold s.mu.
func (s *Service) contributorLocked(name string) (e contributorEntry, ok bool) {
	if cur, ok := s.contributors[norm(name)]; ok {
		return *cur, true
	}
	return contributorEntry{Name: name, policy: ruleindex.Empty()}, false
}

// with returns a copy of m with k set to v: a mutation never changes a
// map an applied entry holds.
func with[K comparable, V any](m map[K]V, k K, v V) map[K]V {
	out := make(map[K]V, len(m)+1)
	maps.Copy(out, m)
	out[k] = v
	return out
}

// members returns a study's consumers, sorted; nil when it has none.
func members(set map[string]bool) []string {
	var out []string
	for m := range set {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// rosterNames returns a roster's display names, sorted.
func rosterNames(roster map[string]string) []string {
	var out []string
	for _, name := range roster {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// loadState restores the broker at open: the state file (a missing one
// is a fresh broker), then every frame of the log, each decoded and
// applied in turn. A frame holds whole entries as they were when it was
// appended, so a later frame about an entry is never older than an
// earlier one, and replaying frames a folded state file already holds
// ends where they did. Every frame is fsynced before the next is
// written, so only the last can be torn: a bad Final frame is where a
// crash cut an append short, any other bad frame is an error. Callers
// hold s.logMu.
func (s *Service) loadState() error {
	data, err := os.ReadFile(filepath.Join(s.dir, stateFileName))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("broker: read state: %w", err)
	}
	var logged []byte
	if s.log, logged, err = walframe.Open(filepath.Join(s.dir, logName)); err != nil {
		return fmt.Errorf("broker: open log: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if data != nil {
		f, err := decode(data)
		if err != nil {
			return fmt.Errorf("broker: decode state: %w", err)
		}
		s.applyLocked(f)
	}
	err = walframe.Scan(logged, 1, func(off int, body []byte) error {
		f, err := decode(body)
		if err != nil {
			return fmt.Errorf("bad frame at %d: %w", off, err)
		}
		s.applyLocked(f)
		return nil
	})
	var bad *walframe.BadFrame
	if err != nil && !(errors.As(err, &bad) && bad.Final) {
		return fmt.Errorf("broker: log: %w", err)
	}
	return nil
}
