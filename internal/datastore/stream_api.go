package datastore

import (
	"time"

	"sensorsafe/internal/auth"
	"sensorsafe/internal/rules"
	"sensorsafe/internal/stream"
)

// Live-sharing API: the authenticated surface over the store's stream hub.
// Consumers subscribe to a contributor's channels and poll for segments
// that were ingested after the subscription, each re-filtered through the
// contributor's current privacy rules at delivery time.

// Stream exposes the hub for server wiring (graceful shutdown, health).
func (s *Service) Stream() *stream.Hub { return s.stream }

// Subscribe registers (or resumes) a consumer's live subscription to a
// contributor's channels. An empty channel list follows everything the
// rules release.
func (s *Service) Subscribe(key auth.APIKey, contributor string, channels []string) (stream.SubInfo, error) {
	u, err := s.authenticate(key, auth.RoleConsumer)
	if err != nil {
		return stream.SubInfo{}, err
	}
	s.mu.RLock()
	_, err = s.stateLocked(contributor)
	s.mu.RUnlock()
	if err != nil {
		return stream.SubInfo{}, err
	}
	return s.stream.Subscribe(u.Name, contributor, channels)
}

// StreamNext long-polls the consumer's subscription: cursor acknowledges
// every event at or before it, wait bounds the block when nothing is
// pending.
func (s *Service) StreamNext(key auth.APIKey, id, cursor string, wait time.Duration) (stream.Batch, error) {
	u, err := s.authenticate(key, auth.RoleConsumer)
	if err != nil {
		return stream.Batch{}, err
	}
	return s.stream.Next(u.Name, id, cursor, wait)
}

// StreamAck advances the durable cursor without polling.
func (s *Service) StreamAck(key auth.APIKey, id, cursor string) error {
	u, err := s.authenticate(key, auth.RoleConsumer)
	if err != nil {
		return err
	}
	return s.stream.Ack(u.Name, id, cursor)
}

// Unsubscribe revokes the consumer's subscription.
func (s *Service) Unsubscribe(key auth.APIKey, id string) error {
	u, err := s.authenticate(key, auth.RoleConsumer)
	if err != nil {
		return err
	}
	return s.stream.Unsubscribe(u.Name, id)
}

// StreamEngine implements stream.RuleSource: the contributor's compiled
// rule index and current rule version. A nil decider denies everything.
func (s *Service) StreamEngine(contributor string) (rules.Decider, uint64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st, err := s.stateLocked(contributor)
	if err != nil {
		return nil, 0, err
	}
	return st.decider(), st.ruleVersion, nil
}

// StreamGroups implements stream.RuleSource: the groups this contributor
// assigned to the consumer (group-scoped rules).
func (s *Service) StreamGroups(contributor, consumer string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st, err := s.stateLocked(contributor)
	if err != nil {
		return nil
	}
	return append([]string(nil), st.groups[normName(consumer)]...)
}
