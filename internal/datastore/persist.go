package datastore

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"sensorsafe/internal/auth"
	"sensorsafe/internal/resilience"
	"sensorsafe/internal/ruleindex"
	"sensorsafe/internal/stream"
	"sensorsafe/internal/walframe"
)

// Metadata persistence: sensor data lives in the segment engine; everything
// else a store must not lose across restarts — accounts and API keys,
// privacy rules, labeled places, consumer group assignments and stream
// subscriptions — is kept in two files. Every control mutation appends
// its frame to the store's log (cursorlog.go), fsynced, and then applies
// it; every stream change is logged the same way after the hub made it.
// The JSON state file is the snapshot that log is folded into: only a
// fold writes it, atomically (tmp + rename), and replay applies it with
// the same apply as the log's frames. In-memory stores (Dir == "") skip
// persistence entirely.

// stateFileName is the metadata file inside the store directory.
const stateFileName = "state.json"

type persistedUser struct {
	Name string      `json:"name"`
	Role string      `json:"role"`
	Key  auth.APIKey `json:"key"`
}

func userRecord(u auth.User) *persistedUser {
	return &persistedUser{Name: u.Name, Role: u.Role.String(), Key: u.Key}
}

// user is the account a record holds.
func (pu *persistedUser) user() auth.User {
	role := auth.RoleConsumer
	if pu.Role == auth.RoleContributor.String() {
		role = auth.RoleContributor
	}
	return auth.User{Name: pu.Name, Role: role, Key: pu.Key}
}

type persistedContributor struct {
	ruleindex.State
	Groups map[string][]string `json:"groups,omitempty"`
}

// persistedState is the state file. Files written while the store kept
// a durable sync outbox also hold "pendingSync"; decoding ignores it,
// since the anti-entropy digest finds every replica it listed.
type persistedState struct {
	Users        []persistedUser                  `json:"users"`
	Contributors map[string]*persistedContributor `json:"contributors"`
	// Subscriptions are the live-sharing registrations and their durable
	// cursors as of this write; the log holds the changes since.
	// Buffered-but-unacked segments are not persisted and surface as a
	// gap event after a restart.
	Subscriptions []stream.SubscriptionState `json:"subscriptions,omitempty"`
}

// saveState writes the metadata file. Its one caller is the fold, which
// holds s.logMu and no other of the store's locks.
func (s *Service) saveState() error {
	if s.opts.Dir == "" {
		return nil
	}
	st, err := s.snapshotState()
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return fmt.Errorf("datastore: encode state: %w", err)
	}
	if err := resilience.WriteFileAtomic(filepath.Join(s.opts.Dir, stateFileName), data, 0o600); err != nil {
		return fmt.Errorf("datastore: write state: %w", err)
	}
	metricStateWrites.Inc()
	return nil
}

func (s *Service) snapshotState() (*persistedState, error) {
	st := &persistedState{Contributors: make(map[string]*persistedContributor)}
	st.Subscriptions = s.stream.Snapshot() // before s.mu: hub locks never nest inside it
	for _, u := range s.users.Snapshot() {
		st.Users = append(st.Users, *userRecord(u))
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for name, cs := range s.contributors {
		ps, err := cs.policy.State()
		if err != nil {
			return nil, err
		}
		st.Contributors[name] = &persistedContributor{State: ps, Groups: cs.Groups}
	}
	return st, nil
}

// loadState restores metadata at startup: the state file (a missing one
// is a fresh store), then the log replayed over it. Callers hold
// s.logMu.
func (s *Service) loadState() error {
	if s.opts.Dir == "" {
		return nil
	}
	var st persistedState
	data, err := os.ReadFile(filepath.Join(s.opts.Dir, stateFileName))
	switch {
	case errors.Is(err, os.ErrNotExist):
	case err != nil:
		return fmt.Errorf("datastore: read state: %w", err)
	default:
		if err := json.Unmarshal(data, &st); err != nil {
			return fmt.Errorf("datastore: decode state: %w", err)
		}
	}
	var logged []byte
	if s.log, logged, err = walframe.Open(filepath.Join(s.opts.Dir, cursorLogName)); err != nil {
		return fmt.Errorf("datastore: open cursor log: %w", err)
	}
	if err := s.replay(&st, logged); err != nil {
		return err
	}
	s.stream.Restore(st.Subscriptions)
	return nil
}
