package datastore

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
	"sensorsafe/internal/stream"
)

// Metadata persistence: sensor data lives in the segment engine; everything
// else a store must not lose across restarts — accounts and API keys,
// privacy rules, labeled places, and consumer group assignments — is kept
// in a JSON state file rewritten atomically (tmp + rename) on every
// mutation. In-memory stores (Dir == "") skip persistence entirely.

// stateFileName is the metadata file inside the store directory.
const stateFileName = "state.json"

type persistedUser struct {
	Name string      `json:"name"`
	Role string      `json:"role"`
	Key  auth.APIKey `json:"key"`
}

type persistedContributor struct {
	ruleindex.State
	Groups map[string][]string `json:"groups,omitempty"`
}

type persistedState struct {
	Users        []persistedUser                  `json:"users"`
	Contributors map[string]*persistedContributor `json:"contributors"`
	// Subscriptions are the live-sharing registrations and their durable
	// cursors; buffered-but-unacked segments are not persisted and
	// surface as a gap event after a restart.
	Subscriptions []stream.SubscriptionState `json:"subscriptions,omitempty"`
	// PendingSync is the durable replica outbox: contributor → rule-set
	// version still awaiting acknowledgment from the sync target. Persisted
	// so a crash between a rule change and a successful broker push cannot
	// silently drop the replica.
	PendingSync map[string]uint64 `json:"pendingSync,omitempty"`
}

// saveState writes the metadata file. Callers must not hold s.mu.
func (s *Service) saveState() error {
	if s.opts.Dir == "" {
		return nil
	}
	s.saveMu.Lock()
	defer s.saveMu.Unlock()
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
	return nil
}

// saveStreamState is the stream hub's OnChange hook (subscribe,
// unsubscribe, cursor advance). The hub has no caller to hand a failed
// write to, so it is logged and counted; the next successful save
// carries the same cursors.
func (s *Service) saveStreamState() {
	if err := s.saveState(); err != nil {
		metricStateSaveErrors.Inc()
		slog.Error("datastore: persist stream state", "store", s.opts.Name, "err", err)
	}
}

func (s *Service) snapshotState() (*persistedState, error) {
	st := &persistedState{Contributors: make(map[string]*persistedContributor)}
	st.Subscriptions = s.stream.Snapshot() // before s.mu: hub locks never nest inside it
	for _, u := range s.users.Snapshot() {
		st.Users = append(st.Users, persistedUser{Name: u.Name, Role: u.Role.String(), Key: u.Key})
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.pending) > 0 {
		st.PendingSync = make(map[string]uint64, len(s.pending))
		for name, v := range s.pending {
			st.PendingSync[name] = v
		}
	}
	names := make([]string, 0, len(s.contributors))
	for name := range s.contributors {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cs := s.contributors[name]
		ps, err := cs.policy.State()
		if err != nil {
			return nil, err
		}
		pc := &persistedContributor{State: ps}
		if len(cs.groups) > 0 {
			pc.Groups = make(map[string][]string, len(cs.groups))
			for consumer, groups := range cs.groups {
				pc.Groups[consumer] = append([]string(nil), groups...)
			}
		}
		st.Contributors[name] = pc
	}
	return st, nil
}

// loadState restores metadata at startup; a missing file is a fresh store.
func (s *Service) loadState() error {
	if s.opts.Dir == "" {
		return nil
	}
	data, err := os.ReadFile(filepath.Join(s.opts.Dir, stateFileName))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("datastore: read state: %w", err)
	}
	var st persistedState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("datastore: decode state: %w", err)
	}
	users := make([]auth.User, 0, len(st.Users))
	for _, pu := range st.Users {
		role := auth.RoleConsumer
		if pu.Role == auth.RoleContributor.String() {
			role = auth.RoleContributor
		}
		users = append(users, auth.User{Name: pu.Name, Role: role, Key: pu.Key})
	}
	if err := s.users.Restore(users); err != nil {
		return fmt.Errorf("datastore: restore users: %w", err)
	}
	s.stream.Restore(st.Subscriptions)
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, pc := range st.Contributors {
		policy, err := ruleindex.Load(pc.State)
		if err != nil {
			return fmt.Errorf("datastore: restore policy for %s: %w", name, err)
		}
		cs := &contributorState{policy: policy, groups: make(map[string][]string)}
		for consumer, groups := range pc.Groups {
			cs.groups[consumer] = groups
		}
		s.contributors[name] = cs
	}
	for name, v := range st.PendingSync {
		s.pending[name] = v
	}
	metricSyncPending.Set(float64(len(s.pending)))
	return nil
}
