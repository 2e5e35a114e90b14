// Package stream is SensorSafe's live-sharing subsystem: consumers
// subscribe to a contributor's channels and every newly-ingested
// (post-merge) wave segment is pushed through the store's release path —
// rule match, dependency-closure check, abstraction, audit — before
// delivery. The paper serves continuous sensory data (ECG, respiration,
// GPS) yet its API is pull-only; this package adds the push half: a
// subscription registry keyed by (consumer, contributor, channels),
// durable per-subscriber cursors so a reconnecting consumer resumes
// without loss or duplication, and bounded per-subscriber buffers whose
// overflow policy never blocks ingest (the subscriber is marked lagging,
// the oldest segments are dropped, and a gap marker is surfaced in-band).
//
// Enforcement runs at delivery time, not enqueue time: a rule edit or
// revocation therefore takes effect on the next delivered segment, and
// segments still buffered when the rules change are re-filtered under the
// new rules. Every data event is stamped with the rule version that
// filtered it.
package stream

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"sensorsafe/internal/abstraction"
	"sensorsafe/internal/audit"
	"sensorsafe/internal/binwire"
	"sensorsafe/internal/obs"
	"sensorsafe/internal/rules"
	"sensorsafe/internal/wavesegment"
)

// Live-sharing pipeline metrics.
var (
	metricSubscribers = obs.NewGauge("sensorsafe_stream_subscribers",
		"Active live-sharing subscriptions.")
	metricLagging = obs.NewGauge("sensorsafe_stream_lagging_subscribers",
		"Subscriptions that overflowed their buffer and have an undelivered gap.")
	metricSegments = obs.NewCounterVec("sensorsafe_stream_segments_total",
		"Per-subscriber segment outcomes in the live-sharing pipeline.",
		"outcome") // delivered | abstracted | suppressed | dropped
	metricDelivery = obs.NewHistogram("sensorsafe_stream_delivery_seconds",
		"Latency from segment ingest (publish) to consumer delivery.", nil)
)

// Errors returned by the hub.
var (
	ErrUnknownSubscription = errors.New("stream: unknown subscription")
	ErrNotOwner            = errors.New("stream: subscription belongs to another consumer")
	ErrBadCursor           = errors.New("stream: malformed cursor")
)

// Event kinds.
const (
	// KindData carries the rule-filtered releases of one wave segment.
	KindData = "data"
	// KindGap marks segments dropped while the subscriber lagged; Dropped
	// counts them. Acknowledging the gap's cursor resumes past it.
	KindGap = "gap"
	// KindBye is the terminal event: the hub is shutting down or the
	// subscription was revoked. No further events will follow.
	KindBye = "bye"
)

// Event is one delivery to a subscriber.
type Event struct {
	Kind string `json:"kind"`
	// Seq is the per-subscription sequence number this event settles.
	Seq uint64 `json:"seq"`
	// Cursor acknowledges everything up to and including this event when
	// passed to the next poll.
	Cursor      string `json:"cursor"`
	Contributor string `json:"contributor,omitempty"`
	// RuleVersion is the contributor's rule-set version that filtered
	// this event's payload (data events only).
	RuleVersion uint64 `json:"ruleVersion,omitempty"`
	// Releases is the post-enforcement payload of one wave segment.
	Releases []*abstraction.Release `json:"releases,omitempty"`
	// Dropped counts segments lost to buffer overflow (gap events only).
	Dropped uint64 `json:"dropped,omitempty"`
}

// Batch is one poll's worth of events. Cursor is the resume token for the
// next poll; it can run ahead of the last event when trailing segments
// were suppressed by the rules (the consumer must still ack it).
type Batch struct {
	Events []Event `json:"events"`
	Cursor string  `json:"cursor"`
}

// eventMinBytes is the smallest encoded event: seven empty fields.
const eventMinBytes = 7

// AppendBinary appends the batch as a binary frame carries it: the
// events as a list of {kind, seq, cursor, contributor, ruleVersion,
// releases, dropped}, then the cursor. Strings, counts and the releases
// use the encodings of packages binwire and abstraction.
func (b Batch) AppendBinary(buf []byte) ([]byte, error) {
	buf, err := binwire.AppendList(buf, b.Events, func(buf []byte, e Event) ([]byte, error) {
		buf = binwire.AppendString(buf, e.Kind)
		buf = binary.AppendUvarint(buf, e.Seq)
		buf = binwire.AppendString(buf, e.Cursor)
		buf = binwire.AppendString(buf, e.Contributor)
		buf = binary.AppendUvarint(buf, e.RuleVersion)
		buf, err := abstraction.AppendReleases(buf, e.Releases)
		return binary.AppendUvarint(buf, e.Dropped), err
	})
	if err != nil {
		return buf, err
	}
	return binwire.AppendString(buf, b.Cursor), nil
}

// DecodeBinary decodes a whole frame AppendBinary wrote into b,
// replacing what b held.
func (b *Batch) DecodeBinary(data []byte) error {
	r := binwire.NewReader(data)
	b.Events = binwire.List(r, eventMinBytes, func(e *Event) {
		e.Kind = r.Str()
		e.Seq = r.Uvarint()
		e.Cursor = r.Str()
		e.Contributor = r.Str()
		e.RuleVersion = r.Uvarint()
		e.Releases = abstraction.DecodeReleases(r)
		e.Dropped = r.Uvarint()
	})
	b.Cursor = r.Str()
	return r.End()
}

// SubInfo describes a subscription to its consumer.
type SubInfo struct {
	ID          string   `json:"id"`
	Contributor string   `json:"contributor"`
	Channels    []string `json:"channels,omitempty"`
	// Cursor is the durable resume token: everything at or before it has
	// been acknowledged.
	Cursor string `json:"cursor"`
	// Resumed reports that Subscribe matched an existing registration for
	// the same (consumer, contributor, channels) key.
	Resumed bool `json:"resumed,omitempty"`
	// Lagging reports an undelivered buffer-overflow gap.
	Lagging bool `json:"lagging,omitempty"`
}

// RuleSource releases one buffered segment to one subscriber;
// *datastore.Service implements it with the release path its queries
// use, so a delivery is decided, projected onto the subscribed channels
// and audited exactly like a query for those channels. It returns the
// releases, the rule version that decided them, and their joint
// classification (audit.OutcomeRaw when every release flowed at full
// fidelity, OutcomeWithheld when none survived). An error releases
// nothing.
type RuleSource interface {
	StreamRelease(consumer string, channels []string, seg *wavesegment.Segment) ([]*abstraction.Release, uint64, audit.Outcome, error)
}

// DefaultBufferSegments bounds each subscription's undelivered backlog.
const DefaultBufferSegments = 256

// maxBatchEvents caps one poll's response size.
const maxBatchEvents = 64

// Options configures a Hub.
type Options struct {
	// Rules filters every delivery (required).
	Rules RuleSource
	// BufferSegments caps each subscription's ring buffer
	// (DefaultBufferSegments if zero).
	BufferSegments int
	// OnChange, when set, is called after every durable mutation
	// (subscribe, unsubscribe, cursor advance) with the subscription's ID
	// and no hub locks held; Subscription then reports its durable state,
	// or that it is gone. The datastore logs each change here.
	OnChange func(id string)
}

// entry is one buffered, not-yet-acknowledged segment.
type entry struct {
	seq      uint64
	seg      *wavesegment.Segment
	enqueued time.Time
}

// sub is one live subscription.
type sub struct {
	id          string
	consumer    string // as subscribed; compared case-insensitively
	contributor string // normalized
	channels    []string

	mu      sync.Mutex
	entries []entry // pending segments, ascending seq; guarded by mu
	acked   uint64  // highest acknowledged seq; guarded by mu
	next    uint64  // next seq to assign (next-1 = newest published); guarded by mu
	lagging bool    // overflow happened since the last delivered gap; guarded by mu
	closed  bool    // terminal: shutdown or revoked; guarded by mu
	notify  chan struct{}
	done    chan struct{}
}

// Hub fans newly-ingested segments out to subscriptions and serves polls.
type Hub struct {
	opts Options

	mu        sync.RWMutex
	subs      map[string]*sub   // by id; guarded by mu
	byKey     map[string]*sub   // by (consumer, contributor, channels) key; guarded by mu
	byContrib map[string][]*sub // by normalized contributor; guarded by mu
	closed    bool              // guarded by mu
}

// New builds a hub.
func New(opts Options) *Hub {
	if opts.BufferSegments <= 0 {
		opts.BufferSegments = DefaultBufferSegments
	}
	return &Hub{
		opts:      opts,
		subs:      make(map[string]*sub),
		byKey:     make(map[string]*sub),
		byContrib: make(map[string][]*sub),
	}
}

func norm(s string) string { return strings.ToLower(strings.TrimSpace(s)) }

// subKey is the registry key: one subscription per (consumer, contributor,
// channel set); channel order does not matter.
func subKey(consumer, contributor string, channels []string) string {
	cs := make([]string, 0, len(channels))
	for _, c := range channels {
		cs = append(cs, norm(c))
	}
	sort.Strings(cs)
	return consumer + "\xff" + contributor + "\xff" + strings.Join(cs, "\xff")
}

func newSubID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("stream: id entropy unavailable: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// Subscribe registers (or resumes) a subscription. Re-subscribing with the
// same (consumer, contributor, channels) tuple returns the existing
// registration and its durable cursor, so a reconnecting consumer replays
// nothing it acknowledged and misses nothing still buffered.
func (h *Hub) Subscribe(consumer, contributor string, channels []string) (SubInfo, error) {
	key := subKey(norm(consumer), norm(contributor), channels)
	h.mu.Lock()
	if s, ok := h.byKey[key]; ok {
		h.mu.Unlock()
		s.mu.Lock()
		info := s.info(true)
		s.mu.Unlock()
		return info, nil
	}
	s := &sub{
		id:          newSubID(),
		consumer:    strings.TrimSpace(consumer),
		contributor: norm(contributor),
		channels:    append([]string(nil), channels...),
		notify:      make(chan struct{}, 1),
		done:        make(chan struct{}),
	}
	h.subs[s.id] = s
	h.byKey[key] = s
	h.byContrib[s.contributor] = append(h.byContrib[s.contributor], s)
	closed := h.closed
	h.mu.Unlock()
	if closed {
		// Subscribing against a draining hub still registers (the cursor
		// is durable) but the first poll sees the terminal event.
		s.mu.Lock()
		s.terminateLocked()
		s.mu.Unlock()
	}
	metricSubscribers.Inc()
	h.changed(s.id)
	s.mu.Lock()
	info := s.info(false)
	s.mu.Unlock()
	return info, nil
}

// info builds a SubInfo; callers hold s.mu.
func (s *sub) info(resumed bool) SubInfo {
	return SubInfo{
		ID:          s.id,
		Contributor: s.contributor,
		Channels:    append([]string(nil), s.channels...),
		Cursor:      formatCursor(s.acked),
		Resumed:     resumed,
		Lagging:     s.lagging,
	}
}

// Unsubscribe revokes a consumer's subscription; blocked polls receive the
// terminal event.
func (h *Hub) Unsubscribe(consumer, id string) error {
	h.mu.Lock()
	s, ok := h.subs[id]
	if !ok {
		h.mu.Unlock()
		return ErrUnknownSubscription
	}
	if norm(s.consumer) != norm(consumer) {
		h.mu.Unlock()
		return ErrNotOwner
	}
	delete(h.subs, id)
	delete(h.byKey, subKey(norm(s.consumer), s.contributor, s.channels))
	list := h.byContrib[s.contributor]
	for i, other := range list {
		if other == s {
			h.byContrib[s.contributor] = append(list[:i], list[i+1:]...)
			break
		}
	}
	h.mu.Unlock()
	s.mu.Lock()
	wasLagging := s.lagging
	s.lagging = false
	s.terminateLocked()
	s.mu.Unlock()
	if wasLagging {
		metricLagging.Dec()
	}
	metricSubscribers.Dec()
	h.changed(id)
	return nil
}

// terminateLocked marks the subscription closed and wakes every waiter;
// callers hold s.mu.
func (s *sub) terminateLocked() {
	if !s.closed {
		s.closed = true
		close(s.done)
	}
}

// Shutdown drains the hub for graceful server stop: every subscription is
// marked terminal (blocked polls wake with a bye event) but registrations
// and cursors are kept, so they persist across a restart.
func (h *Hub) Shutdown() {
	h.mu.Lock()
	h.closed = true
	all := make([]*sub, 0, len(h.subs))
	for _, s := range h.subs {
		all = append(all, s)
	}
	h.mu.Unlock()
	for _, s := range all {
		s.mu.Lock()
		s.terminateLocked()
		s.mu.Unlock()
	}
}

// Publish fans one newly-ingested (post-merge) wave segment out to every
// matching subscription. It never blocks on slow consumers: a full buffer
// drops its oldest segment, marks the subscriber lagging, and the loss
// surfaces as an in-band gap event. Every subscription buffers seg
// itself, so the caller hands it over (see wavesegment.Segment).
func (h *Hub) Publish(contributor string, seg *wavesegment.Segment) {
	h.mu.RLock()
	targets := h.byContrib[norm(contributor)]
	if len(targets) == 0 {
		h.mu.RUnlock()
		return
	}
	matched := make([]*sub, 0, len(targets))
	for _, s := range targets {
		if subWantsSegment(s.channels, seg) {
			matched = append(matched, s)
		}
	}
	h.mu.RUnlock()
	if len(matched) == 0 {
		return
	}
	now := time.Now()
	for _, s := range matched {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			continue
		}
		if len(s.entries) >= h.opts.BufferSegments {
			s.entries = s.entries[1:]
			if !s.lagging {
				s.lagging = true
				metricLagging.Inc()
			}
			metricSegments.With("dropped").Inc()
		}
		s.next++
		s.entries = append(s.entries, entry{seq: s.next, seg: seg, enqueued: now})
		s.mu.Unlock()
		select {
		case s.notify <- struct{}{}:
		default:
		}
	}
}

// subWantsSegment reports whether a segment carries any channel the
// subscription asked for (empty channel list = everything).
func subWantsSegment(channels []string, seg *wavesegment.Segment) bool {
	if len(channels) == 0 {
		return true
	}
	for _, c := range rules.ExpandSensorNames(channels) {
		if seg.HasChannel(c) {
			return true
		}
	}
	return false
}

func formatCursor(seq uint64) string { return strconv.FormatUint(seq, 10) }

// parseCursor resolves a client cursor; "" means "resume from the durable
// acked position".
func parseCursor(cursor string, acked uint64) (uint64, error) {
	if cursor == "" {
		return acked, nil
	}
	v, err := strconv.ParseUint(cursor, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: %q", ErrBadCursor, cursor)
	}
	return v, nil
}

// Ack advances the durable cursor without waiting for events (the
// /api/stream/ack endpoint and clean client shutdowns use it).
func (h *Hub) Ack(consumer, id, cursor string) error {
	s, err := h.lookup(consumer, id)
	if err != nil {
		return err
	}
	s.mu.Lock()
	cur, err := parseCursor(cursor, s.acked)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	changed := s.advanceLocked(cur)
	s.mu.Unlock()
	if changed {
		h.changed(id)
	}
	return nil
}

func (h *Hub) lookup(consumer, id string) (*sub, error) {
	h.mu.RLock()
	s, ok := h.subs[id]
	h.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownSubscription, id)
	}
	if norm(s.consumer) != norm(consumer) {
		return nil, ErrNotOwner
	}
	return s, nil
}

// advanceLocked moves the acked cursor forward (never past the newest
// published seq, never backward) and trims settled entries. Callers hold
// s.mu; returns whether the durable cursor moved.
func (s *sub) advanceLocked(cur uint64) bool {
	if cur > s.next {
		cur = s.next
	}
	if cur <= s.acked {
		return false
	}
	s.acked = cur
	i := 0
	for i < len(s.entries) && s.entries[i].seq <= cur {
		i++
	}
	s.entries = s.entries[i:]
	// Contiguity restored (no pending gap in front of the buffer) clears
	// the lagging mark.
	if s.lagging && (len(s.entries) == 0 || s.entries[0].seq == cur+1) {
		s.lagging = false
		metricLagging.Dec()
	}
	return true
}

// Next is the long-poll delivery path. The caller's cursor acknowledges
// every event at or before it; Next then returns the events after it —
// each published segment re-filtered through the contributor's *current*
// privacy rules — blocking up to wait when nothing is pending. The
// returned Batch.Cursor is the resume token; it advances past segments the
// rules suppressed even when Events is empty.
func (h *Hub) Next(consumer, id, cursor string, wait time.Duration) (Batch, error) {
	s, err := h.lookup(consumer, id)
	if err != nil {
		return Batch{}, err
	}
	s.mu.Lock()
	cur, err := parseCursor(cursor, s.acked)
	if err != nil {
		s.mu.Unlock()
		return Batch{}, err
	}
	if cur > s.next {
		cur = s.next // a cursor from a lost future (pre-restart) clamps
	}
	ackChanged := s.advanceLocked(cur)
	s.mu.Unlock()
	if ackChanged {
		h.changed(id)
	}

	deadline := time.Now().Add(wait)
	for {
		evs, newCur := h.collect(s, cur)
		cur = newCur
		s.mu.Lock()
		closed := s.closed
		s.mu.Unlock()
		if closed && len(evs) == 0 {
			evs = append(evs, Event{
				Kind: KindBye, Seq: cur, Cursor: formatCursor(cur),
				Contributor: s.contributor,
			})
		}
		if len(evs) > 0 {
			return Batch{Events: evs, Cursor: formatCursor(cur)}, nil
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return Batch{Cursor: formatCursor(cur)}, nil
		}
		timer := time.NewTimer(remain)
		select {
		case <-s.notify:
		case <-s.done:
		case <-timer.C:
		}
		timer.Stop()
	}
}

// collect drains deliverable events after cur, running enforcement outside
// the subscription lock so ingest never waits on rule evaluation. Returns
// the events and the advanced local cursor (past suppressed segments).
func (h *Hub) collect(s *sub, cur uint64) ([]Event, uint64) {
	s.mu.Lock()
	newest := s.next
	var pending []entry
	for _, e := range s.entries {
		if e.seq > cur {
			pending = append(pending, e)
			if len(pending) == maxBatchEvents {
				break
			}
		}
	}
	s.mu.Unlock()

	var evs []Event
	// Segments published but no longer buffered (overflow, or a restart
	// that emptied the buffer) surface as one gap event.
	gapTo := newest
	if len(pending) > 0 {
		gapTo = pending[0].seq - 1
	}
	if gapTo > cur {
		evs = append(evs, Event{
			Kind: KindGap, Seq: gapTo, Cursor: formatCursor(gapTo),
			Contributor: s.contributor, Dropped: gapTo - cur,
		})
		cur = gapTo
	}
	if len(pending) == 0 {
		return evs, cur
	}

	for _, e := range pending {
		rels, version, outcome, err := h.opts.Rules.StreamRelease(s.consumer, s.channels, e.seg)
		cur = e.seq
		if err != nil || len(rels) == 0 {
			metricSegments.With("suppressed").Inc() // enforcement errors fail closed
			continue
		}
		if outcome == audit.OutcomeRaw {
			metricSegments.With("delivered").Inc()
		} else {
			metricSegments.With("abstracted").Inc()
		}
		metricDelivery.Observe(time.Since(e.enqueued).Seconds())
		evs = append(evs, Event{
			Kind: KindData, Seq: e.seq, Cursor: formatCursor(e.seq),
			Contributor: s.contributor, RuleVersion: version, Releases: rels,
		})
	}
	return evs, cur
}

// changed fires the persistence hook with no locks held.
func (h *Hub) changed(id string) {
	if h.opts.OnChange != nil {
		h.opts.OnChange(id)
	}
}

// SubscriptionState is the durable slice of one subscription: identity and
// cursor, but not the volatile buffer (segments in flight across a restart
// surface as a gap on the next poll).
type SubscriptionState struct {
	ID          string   `json:"id"`
	Consumer    string   `json:"consumer"`
	Contributor string   `json:"contributor"`
	Channels    []string `json:"channels,omitempty"`
	Acked       uint64   `json:"acked"`
	Next        uint64   `json:"next"`
}

// Snapshot captures every subscription's durable state, sorted by ID.
func (h *Hub) Snapshot() []SubscriptionState {
	h.mu.RLock()
	all := make([]*sub, 0, len(h.subs))
	for _, s := range h.subs {
		all = append(all, s)
	}
	h.mu.RUnlock()
	out := make([]SubscriptionState, 0, len(all))
	for _, s := range all {
		out = append(out, s.state())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Subscription reports one subscription's durable state; ok is false
// once it has been unsubscribed (or was never registered).
func (h *Hub) Subscription(id string) (SubscriptionState, bool) {
	h.mu.RLock()
	s, ok := h.subs[id]
	h.mu.RUnlock()
	if !ok {
		return SubscriptionState{}, false
	}
	return s.state(), true
}

func (s *sub) state() SubscriptionState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SubscriptionState{
		ID: s.id, Consumer: s.consumer, Contributor: s.contributor,
		Channels: append([]string(nil), s.channels...),
		Acked:    s.acked, Next: s.next,
	}
}

// Restore re-registers persisted subscriptions at startup. Buffers start
// empty; anything published-but-unacked before the restart is reported as
// a gap on the subscriber's next poll (Next > Acked).
func (h *Hub) Restore(states []SubscriptionState) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, st := range states {
		if st.ID == "" || st.Consumer == "" || st.Contributor == "" {
			continue
		}
		if _, dup := h.subs[st.ID]; dup {
			continue
		}
		key := subKey(norm(st.Consumer), norm(st.Contributor), st.Channels)
		if _, dup := h.byKey[key]; dup {
			continue
		}
		next := st.Next
		if next < st.Acked {
			next = st.Acked
		}
		s := &sub{
			id:          st.ID,
			consumer:    strings.TrimSpace(st.Consumer),
			contributor: norm(st.Contributor),
			channels:    append([]string(nil), st.Channels...),
			acked:       st.Acked,
			next:        next,
			notify:      make(chan struct{}, 1),
			done:        make(chan struct{}),
		}
		h.subs[s.id] = s
		h.byKey[key] = s
		h.byContrib[s.contributor] = append(h.byContrib[s.contributor], s)
		metricSubscribers.Inc()
	}
}

// Subscribers reports the number of active subscriptions (health surface).
func (h *Hub) Subscribers() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.subs)
}
