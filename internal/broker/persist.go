package broker

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"sensorsafe/internal/auth"
	"sensorsafe/internal/geo"
	"sensorsafe/internal/resilience"
	"sensorsafe/internal/ruleindex"
	"sensorsafe/internal/rules"
)

// Broker persistence: the directory of contributors with their rule
// replicas, consumer accounts with vaulted per-store keys, saved lists,
// and study membership all survive restarts via a JSON state file written
// atomically on every mutation. Store connections (live StoreConn handles)
// are re-registered by the stores at startup and are not persisted.

const stateFileName = "broker_state.json"

type persistedBrokerContributor struct {
	Name      string          `json:"name"`
	StoreAddr string          `json:"storeAddr,omitempty"`
	Rules     json.RawMessage `json:"rules,omitempty"`
	Places    []geo.Region    `json:"places,omitempty"`
	// RuleVersion is the applied replica version; StoreVersion the highest
	// version the store has claimed. Persisting both means a broker restart
	// still knows which replicas were stale.
	RuleVersion  uint64 `json:"ruleVersion,omitempty"`
	StoreVersion uint64 `json:"storeVersion,omitempty"`
}

type persistedBrokerConsumer struct {
	Lists  map[string][]string    `json:"lists,omitempty"`
	Keys   map[string]auth.APIKey `json:"keys,omitempty"`
	Groups []string               `json:"groups,omitempty"`
}

type persistedBrokerState struct {
	Users        []auth.User                            `json:"users"`
	Contributors map[string]*persistedBrokerContributor `json:"contributors"`
	Consumers    map[string]*persistedBrokerConsumer    `json:"consumers"`
	Studies      map[string][]string                    `json:"studies"`
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
	if err := s.loadState(); err != nil {
		return nil, err
	}
	return s, nil
}

// saveState writes the state file; callers must not hold s.mu.
func (s *Service) saveState() error {
	if s.dir == "" {
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
		return fmt.Errorf("broker: encode state: %w", err)
	}
	if err := resilience.WriteFileAtomic(filepath.Join(s.dir, stateFileName), data, 0o600); err != nil {
		return fmt.Errorf("broker: write state: %w", err)
	}
	return nil
}

func (s *Service) snapshotState() (*persistedBrokerState, error) {
	st := &persistedBrokerState{
		Users:        s.users.Snapshot(),
		Contributors: make(map[string]*persistedBrokerContributor),
		Consumers:    make(map[string]*persistedBrokerConsumer),
		Studies:      make(map[string][]string),
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for key, ce := range s.contributors {
		pc := &persistedBrokerContributor{
			Name: ce.name, StoreAddr: ce.storeAddr,
			RuleVersion: ce.version, StoreVersion: ce.storeVersion,
		}
		if len(ce.rules) > 0 {
			data, err := rules.MarshalRuleSet(ce.rules)
			if err != nil {
				return nil, err
			}
			pc.Rules = data
		}
		if ce.gazetteer != nil {
			labels := ce.gazetteer.Labels()
			sort.Strings(labels)
			for _, l := range labels {
				if rg, ok := ce.gazetteer.Lookup(l); ok {
					pc.Places = append(pc.Places, rg)
				}
			}
		}
		st.Contributors[key] = pc
	}
	for key, e := range s.consumers {
		pc := &persistedBrokerConsumer{Groups: append([]string(nil), e.groups...)}
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
	for study, members := range s.studies {
		var out []string
		for m := range members {
			out = append(out, m)
		}
		sort.Strings(out)
		st.Studies[study] = out
	}
	for study, roster := range s.rosters {
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

func (s *Service) loadState() error {
	data, err := os.ReadFile(filepath.Join(s.dir, stateFileName))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("broker: read state: %w", err)
	}
	var st persistedBrokerState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("broker: decode state: %w", err)
	}
	if len(st.Users) > 0 {
		if err := s.users.Restore(st.Users); err != nil {
			return fmt.Errorf("broker: restore users: %w", err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for key, pc := range st.Contributors {
		ce := &contributorEntry{
			name: pc.Name, storeAddr: pc.StoreAddr, gazetteer: geo.NewGazetteer(),
			version: pc.RuleVersion, storeVersion: pc.StoreVersion,
		}
		for _, rg := range pc.Places {
			if err := ce.gazetteer.Define(rg.Label, rg); err != nil {
				return fmt.Errorf("broker: restore place %q: %w", rg.Label, err)
			}
		}
		if len(pc.Rules) > 0 {
			rs, err := rules.UnmarshalRuleSet(pc.Rules)
			if err != nil {
				return fmt.Errorf("broker: restore rules for %s: %w", pc.Name, err)
			}
			engine, err := rules.NewEngine(rs, ce.gazetteer)
			if err != nil {
				return fmt.Errorf("broker: recompile rules for %s: %w", pc.Name, err)
			}
			ce.rules = rs
			ce.engine = engine
			ce.index = ruleindex.FromEngine(engine, ruleindex.Options{Version: ce.version})
		}
		s.contributors[key] = ce
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
