package broker

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
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
// and study membership all survive restarts in two files. Every mutation
// appends one frame, a persistedBrokerState of the entries it changed,
// to broker.log (a walframe.Log) and fsyncs it before it returns. Only a
// fold of that log writes the JSON state file, atomically: when the log
// is full, at open after a crash, and on Close. Store connections (live
// StoreConn handles) are re-registered by the stores at startup.

const stateFileName, logName = "broker_state.json", "broker.log"

type persistedBrokerContributor struct {
	Name      string `json:"name"`
	StoreAddr string `json:"storeAddr,omitempty"`
	// State is the applied replica at its version; StoreVersion the
	// highest version the store has claimed. Persisting both means a
	// broker restart still knows which replicas were stale.
	ruleindex.State
	StoreVersion uint64 `json:"storeVersion,omitempty"`
}

type persistedBrokerConsumer struct {
	Lists  map[string][]string    `json:"lists,omitempty"`
	Keys   map[string]auth.APIKey `json:"keys,omitempty"`
	Groups []string               `json:"groups,omitempty"`
}

type persistedBrokerState struct {
	Users        []auth.User                           `json:"users"`
	Contributors map[string]persistedBrokerContributor `json:"contributors"`
	Consumers    map[string]persistedBrokerConsumer    `json:"consumers"`
	Studies      map[string][]string                   `json:"studies"`
	// StudyRosters holds each study's enrolled contributor cohort (display
	// names; map keys re-derive by normalization on load).
	StudyRosters map[string][]string `json:"studyRosters,omitempty"`
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

// change names, by normalized key, the entries one mutation changed.
type change struct {
	user, consumer, study, roster string
	contributors                  []string
}

// logChange appends one frame, the current state of c's entries, and
// fsyncs it. The frame is read under logMu, so the last frame about an
// entry is its newest state; callers do not hold mu. The append that
// fills the log folds it; the frame is durable either way, so a failed
// fold is logged and the next append tries again.
func (s *Service) logChange(c change) error {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	if s.log == nil {
		return nil // in-memory broker
	}
	var users []auth.User
	if u, ok := s.users.SnapshotUser(c.user); ok {
		users = []auth.User{u}
	}
	s.mu.RLock()
	f, err := persist(users, pick(s.contributors, c.contributors...), pick(s.consumers, c.consumer),
		pick(s.studies, c.study), pick(s.rosters, c.roster))
	s.mu.RUnlock()
	if err != nil {
		return err
	}
	body, err := json.Marshal(f)
	if err != nil {
		return err
	}
	full, err := s.log.Append(body)
	if err != nil {
		return fmt.Errorf("broker: append log: %w", err)
	}
	if full {
		if err := s.log.Fold(s.saveState()); err != nil {
			slog.Error("broker: fold log", "err", err)
		}
	}
	return nil
}

// pick returns the entries of m under keys.
func pick[V any](m map[string]V, keys ...string) map[string]V {
	out := make(map[string]V, len(keys))
	for _, k := range keys {
		if v, ok := m[k]; ok {
			out[k] = v
		}
	}
	return out
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

func (s *Service) snapshotState() (*persistedBrokerState, error) {
	users := s.users.Snapshot()
	s.mu.RLock()
	defer s.mu.RUnlock()
	return persist(users, s.contributors, s.consumers, s.studies, s.rosters)
}

// persist returns the stored form of the given entries, which the
// caller's s.mu guards.
func persist(users []auth.User, contributors map[string]*contributorEntry, consumers map[string]*consumerEntry,
	studies map[string]map[string]bool, rosters map[string]map[string]string) (*persistedBrokerState, error) {
	st := &persistedBrokerState{
		Users:        users,
		Contributors: make(map[string]persistedBrokerContributor),
		Consumers:    make(map[string]persistedBrokerConsumer),
		Studies:      make(map[string][]string),
	}
	for key, ce := range contributors {
		ps, err := ce.policy.State()
		if err != nil {
			return nil, err
		}
		st.Contributors[key] = persistedBrokerContributor{
			Name: ce.name, StoreAddr: ce.storeAddr, State: ps, StoreVersion: ce.storeVersion,
		}
	}
	for key, e := range consumers {
		pc := persistedBrokerConsumer{Groups: append([]string(nil), e.groups...)}
		if len(e.lists) > 0 {
			pc.Lists = make(map[string][]string, len(e.lists))
			for n, members := range e.lists {
				pc.Lists[n] = append([]string(nil), members...)
			}
		}
		if len(e.keys) > 0 {
			pc.Keys = make(map[string]auth.APIKey, len(e.keys))
			for addr, k := range e.keys {
				pc.Keys[addr] = k
			}
		}
		st.Consumers[key] = pc
	}
	for study, members := range studies {
		var out []string
		for m := range members {
			out = append(out, m)
		}
		sort.Strings(out)
		st.Studies[study] = out
	}
	for study, roster := range rosters {
		var out []string
		for _, name := range roster {
			out = append(out, name)
		}
		sort.Strings(out)
		if st.StudyRosters == nil {
			st.StudyRosters = make(map[string][]string)
		}
		st.StudyRosters[study] = out
	}
	return st, nil
}

// loadState restores the broker at open: the state file (a missing one
// is a fresh broker), then the log replayed over it. Callers hold
// s.logMu.
func (s *Service) loadState() error {
	var st persistedBrokerState
	data, err := os.ReadFile(filepath.Join(s.dir, stateFileName))
	switch {
	case errors.Is(err, os.ErrNotExist):
	case err != nil:
		return fmt.Errorf("broker: read state: %w", err)
	default:
		if err := json.Unmarshal(data, &st); err != nil {
			return fmt.Errorf("broker: decode state: %w", err)
		}
	}
	var logged []byte
	if s.log, logged, err = walframe.Open(filepath.Join(s.dir, logName)); err != nil {
		return fmt.Errorf("broker: open log: %w", err)
	}
	if err := replayLog(&st, logged); err != nil {
		return err
	}
	if len(st.Users) > 0 {
		if err := s.users.Restore(st.Users); err != nil {
			return fmt.Errorf("broker: restore users: %w", err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for key, pc := range st.Contributors {
		policy, err := ruleindex.Load(pc.State)
		if err != nil {
			return fmt.Errorf("broker: restore policy for %s: %w", pc.Name, err)
		}
		s.contributors[key] = &contributorEntry{
			name: pc.Name, storeAddr: pc.StoreAddr, policy: policy, storeVersion: pc.StoreVersion,
		}
	}
	metricDirectorySize.Set(float64(len(s.contributors)))
	s.recomputeStaleLocked()
	for key, pc := range st.Consumers {
		e := &consumerEntry{
			lists:  make(map[string][]string),
			keys:   make(map[string]auth.APIKey),
			groups: append([]string(nil), pc.Groups...),
		}
		for n, members := range pc.Lists {
			e.lists[n] = append([]string(nil), members...)
		}
		for addr, k := range pc.Keys {
			e.keys[addr] = k
		}
		s.consumers[key] = e
	}
	for study, members := range st.Studies {
		set := make(map[string]bool, len(members))
		for _, m := range members {
			set[m] = true
		}
		s.studies[study] = set
	}
	for study, names := range st.StudyRosters {
		roster := make(map[string]string, len(names))
		for _, n := range names {
			roster[norm(n)] = n
		}
		s.rosters[study] = roster
	}
	return nil
}

// replayLog applies the log's frames, in order, to a state-file
// snapshot. Each frame holds the whole state of the entries it names as
// it was when appended, so a later frame about an entry is never older
// than an earlier one: decoding a frame over the snapshot replaces each
// entry it holds, last writer wins (persist makes every map of a frame,
// so none decodes as null and clears the snapshot's). Accounts are a
// list, merged by name here. Every frame is fsynced before the
// next is written, so only the last can be torn: a bad Final frame is
// where a crash cut an append short, any other bad frame is an error. A
// replica that does not compile fails loadState's ruleindex.Load.
func replayLog(st *persistedBrokerState, data []byte) error {
	users := make(map[string]auth.User, len(st.Users))
	for _, u := range st.Users {
		users[norm(u.Name)] = u
	}
	err := walframe.Scan(data, 1, func(off int, body []byte) error {
		st.Users = nil
		if err := json.Unmarshal(body, st); err != nil {
			return fmt.Errorf("bad frame at %d: %w", off, err)
		}
		for _, u := range st.Users {
			users[norm(u.Name)] = u
		}
		return nil
	})
	var bad *walframe.BadFrame
	if err != nil && !(errors.As(err, &bad) && bad.Final) {
		return fmt.Errorf("broker: log: %w", err)
	}
	st.Users = nil
	for _, u := range users {
		st.Users = append(st.Users, u)
	}
	return nil
}
