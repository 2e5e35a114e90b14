package datastore

import (
	"time"

	"sensorsafe/internal/abstraction"
	"sensorsafe/internal/audit"
	"sensorsafe/internal/auth"
	"sensorsafe/internal/query"
	"sensorsafe/internal/rules"
	"sensorsafe/internal/stream"
	"sensorsafe/internal/wavesegment"
)

// Live-sharing API: the authenticated surface over the store's stream hub.
// Consumers subscribe to a contributor's channels and poll for segments
// that were ingested after the subscription, each passed through release
// under the contributor's current privacy rules at delivery time.

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
	if _, err := s.policyOf(contributor); err != nil {
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

// StreamRelease implements stream.RuleSource: a subscription is the query
// for its channels, so a delivery goes through release exactly like a
// query and is audited as "stream <query>", under the contributor's
// record as the delivery first reads it. Hub.Next carries no context, so
// stream audit events carry no trace ID.
func (s *Service) StreamRelease(consumer string, channels []string, seg *wavesegment.Segment) ([]*abstraction.Release, uint64, audit.Outcome, error) {
	q := &query.Query{Channels: channels}
	return s.release(audit.Event{Consumer: consumer, Query: "stream " + q.String()}, seg, q, nil, s.contributorOf(seg.Contributor))
}

// StreamEngine returns the contributor's policy and its version, the
// decider release uses; benchmarks read it to time enforcement on its
// own. A contributor without rules gets the empty policy, which denies
// everything.
func (s *Service) StreamEngine(contributor string) (rules.Decider, uint64, error) {
	p, err := s.policyOf(contributor)
	if err != nil {
		return nil, 0, err
	}
	return p, p.Version(), nil
}
