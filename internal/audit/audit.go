// Package audit implements the access-trace audit a remote data store
// keeps for its contributors. The paper's §2 positions SensorSafe as an
// extension of the Personal Data Vault (Mun et al., 2010), whose trace
// audit lets a data owner see exactly who accessed what; this package
// supplies that capability: every consumer query and live-stream delivery
// is recorded with the consumer identity, query, matched spans, the
// decision outcome per span (released in full, abstracted, or withheld)
// and the rules and rule version behind it, and contributors can
// review and aggregate their trail.
package audit

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Outcome classifies what one enforcement span released.
type Outcome int

// Outcomes, from most to least revealing.
const (
	// OutcomeRaw: raw channels released at full precision.
	OutcomeRaw Outcome = iota
	// OutcomeAbstracted: something released below full precision (channel
	// projection, coarsened location/time, abstracted context labels).
	OutcomeAbstracted
	// OutcomeWithheld: nothing released for the span.
	OutcomeWithheld
)

func (o Outcome) String() string {
	switch o {
	case OutcomeRaw:
		return "raw"
	case OutcomeAbstracted:
		return "abstracted"
	case OutcomeWithheld:
		return "withheld"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Event is one audited access.
type Event struct {
	// At is when the access happened.
	At time.Time `json:"at"`
	// Contributor whose data was requested.
	Contributor string `json:"contributor"`
	// Consumer who asked.
	Consumer string `json:"consumer"`
	// Query is the textual form of the consumer's query.
	Query string `json:"query,omitempty"`
	// SpanStart/SpanEnd delimit the data span the event covers.
	SpanStart time.Time `json:"spanStart,omitempty"`
	SpanEnd   time.Time `json:"spanEnd,omitempty"`
	// Outcome classifies the release.
	Outcome Outcome `json:"outcome"`
	// Channels released raw (empty when none).
	Channels []string `json:"channels,omitempty"`
	// Contexts released (possibly abstracted labels).
	Contexts []string `json:"contexts,omitempty"`
	// RuleVersion is the contributor's rule-set version that decided the
	// release (or withheld it).
	RuleVersion uint64 `json:"ruleVersion,omitempty"`
	// Rules are the sorted IDs of the rules that matched the release
	// (rules without an ID are not listed).
	Rules []string `json:"rules,omitempty"`
	// TraceID cross-references the distributed trace of the query that
	// caused this access (32 hex chars, empty when the query carried no
	// trace): the trail answers *what* was released, /debug/traces?id=
	// answers *why* — which rules matched and at what granularity.
	TraceID string `json:"traceId,omitempty"`
}

// Trail is an append-only, bounded audit log. Safe for concurrent use.
type Trail struct {
	mu sync.RWMutex
	// events grows by append until it holds limit events and is a ring
	// from then on: head is the oldest event and the next slot Record
	// overwrites (0 while growing), so appending never moves the rest.
	events []Event
	head   int
	limit  int
	now    func() time.Time
}

// DefaultLimit bounds the in-memory trail.
const DefaultLimit = 100000

// NewTrail creates an empty trail keeping at most limit events
// (DefaultLimit when <= 0); the oldest events are evicted first.
func NewTrail(limit int) *Trail {
	if limit <= 0 {
		limit = DefaultLimit
	}
	return &Trail{limit: limit, now: time.Now}
}

// Record appends one event, stamping At if zero.
func (t *Trail) Record(e Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e.At.IsZero() {
		e.At = t.now()
	}
	if len(t.events) < t.limit {
		t.events = append(t.events, e)
		return
	}
	t.events[t.head] = e
	t.head = (t.head + 1) % t.limit
}

// at returns the i-th retained event, oldest first. Callers hold t.mu.
func (t *Trail) at(i int) *Event {
	return &t.events[(t.head+i)%len(t.events)]
}

// Len returns the number of retained events.
func (t *Trail) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.events)
}

// Filter selects audit events.
type Filter struct {
	// Contributor restricts to one data owner ("" = all).
	Contributor string
	// Consumer restricts to one accessor ("" = all).
	Consumer string
	// Since drops events before this instant.
	Since time.Time
	// Outcome restricts to one outcome (nil = all).
	Outcome *Outcome
	// Limit caps returned events (0 = all), newest first.
	Limit int
}

func (f *Filter) matches(e *Event) bool {
	if f.Contributor != "" && !strings.EqualFold(f.Contributor, e.Contributor) {
		return false
	}
	if f.Consumer != "" && !strings.EqualFold(f.Consumer, e.Consumer) {
		return false
	}
	if !f.Since.IsZero() && e.At.Before(f.Since) {
		return false
	}
	if f.Outcome != nil && e.Outcome != *f.Outcome {
		return false
	}
	return true
}

// Events returns matching events, newest first.
func (t *Trail) Events(f Filter) []Event {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []Event
	for i := len(t.events) - 1; i >= 0; i-- {
		e := t.at(i)
		if !f.matches(e) {
			continue
		}
		out = append(out, *e)
		if f.Limit > 0 && len(out) >= f.Limit {
			break
		}
	}
	return out
}

// ConsumerSummary aggregates one consumer's accesses to one contributor.
type ConsumerSummary struct {
	Consumer   string        `json:"consumer"`
	Accesses   int           `json:"accesses"`
	Raw        int           `json:"raw"`
	Abstracted int           `json:"abstracted"`
	Withheld   int           `json:"withheld"`
	First      time.Time     `json:"first"`
	Last       time.Time     `json:"last"`
	DataSpan   time.Duration `json:"dataSpan"` // total span duration released (raw+abstracted)
}

// Summarize aggregates a contributor's trail per consumer, sorted by
// consumer name — the view a data owner reviews ("who has been reading my
// data, and how much did they actually see?").
func (t *Trail) Summarize(contributor string) []ConsumerSummary {
	t.mu.RLock()
	defer t.mu.RUnlock()
	byConsumer := make(map[string]*ConsumerSummary)
	for i := range t.events {
		e := t.at(i)
		if !strings.EqualFold(e.Contributor, contributor) {
			continue
		}
		key := strings.ToLower(e.Consumer)
		s, ok := byConsumer[key]
		if !ok {
			s = &ConsumerSummary{Consumer: e.Consumer, First: e.At}
			byConsumer[key] = s
		}
		s.Accesses++
		switch e.Outcome {
		case OutcomeRaw:
			s.Raw++
		case OutcomeAbstracted:
			s.Abstracted++
		case OutcomeWithheld:
			s.Withheld++
		}
		if e.At.Before(s.First) {
			s.First = e.At
		}
		if e.At.After(s.Last) {
			s.Last = e.At
		}
		if e.Outcome != OutcomeWithheld && !e.SpanStart.IsZero() && e.SpanEnd.After(e.SpanStart) {
			s.DataSpan += e.SpanEnd.Sub(e.SpanStart)
		}
	}
	out := make([]ConsumerSummary, 0, len(byConsumer))
	for _, s := range byConsumer {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Consumer < out[j].Consumer })
	return out
}
