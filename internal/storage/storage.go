// Package storage holds what every segment storage backend of a
// SensorSafe remote data store shares — record IDs, the Query predicate,
// Result, the sentinel errors and the Engine seam the datastore calls —
// plus the in-memory Store: an index ordered by segment start time that
// serves services opened without a directory and is the reference
// internal/segstore's differential test compares the persistent engine
// against. Nothing in this package touches disk; persistent stores run
// on internal/segstore.
package storage

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"sensorsafe/internal/geo"
	"sensorsafe/internal/wavesegment"
)

// ID identifies a stored segment record.
type ID uint64

// Errors returned by the store.
var (
	ErrNotFound = errors.New("storage: segment not found")
	ErrClosed   = errors.New("storage: store is closed")
)

// Engine is the contract a segment storage backend provides to the
// datastore layer. Two implementations exist: this package's in-memory
// Store (services without a directory) and internal/segstore's
// persistent columnar LSM engine. The differential tests in segstore
// hold the two to identical observable behavior.
//
// Put is where a stream's tail grows: a segment that continues the newest
// record of its stream (wavesegment.Extend, under the store's sample cap)
// is appended to that record, and Put returns the record's ID; anything
// else becomes a new record.
type Engine interface {
	Put(seg *wavesegment.Segment) (ID, error)
	Count() int
	// ScanRefs returns matching segments ordered by start time. They may
	// be the engine's own records, read-only like every segment (see
	// wavesegment.Segment): a caller slices and projects them without a
	// copy, and clones what it must write into.
	ScanRefs(q Query) ([]Result, error)
	Close() error
}

// record is one live entry in the index.
type record struct {
	id  ID
	seg *wavesegment.Segment
}

// Store is the in-memory segment store. All methods are safe for
// concurrent use; Close discards everything.
type Store struct {
	mu         sync.RWMutex
	nextID     ID
	maxSamples int
	byID       map[ID]*record
	// byStart is sorted by (StartTime, id) for range scans.
	byStart []*record
	// tails maps each stream (Segment.StreamKey) to its newest record,
	// the latest-starting one, which a continuing Put extends; a late
	// packet does not displace it.
	tails  map[string]*record
	closed bool
}

// NewMemory returns an empty in-memory store whose records grow by
// extension up to maxSamples samples (wavesegment.DefaultMaxSamples if
// maxSamples <= 0).
func NewMemory(maxSamples int) *Store {
	if maxSamples <= 0 {
		maxSamples = wavesegment.DefaultMaxSamples
	}
	return &Store{
		byID:       make(map[ID]*record),
		tails:      make(map[string]*record),
		nextID:     1,
		maxSamples: maxSamples,
	}
}

// insert adds a record to the in-memory index.
func (s *Store) insert(id ID, seg *wavesegment.Segment) *record {
	rec := &record{id: id, seg: seg}
	s.byID[id] = rec
	i := sort.Search(len(s.byStart), func(i int) bool {
		ri := s.byStart[i]
		if ri.seg.StartTime().Equal(seg.StartTime()) {
			return ri.id >= id
		}
		return ri.seg.StartTime().After(seg.StartTime())
	})
	s.byStart = append(s.byStart, nil)
	copy(s.byStart[i+1:], s.byStart[i:])
	s.byStart[i] = rec
	return rec
}

// Put validates and stores a segment, returning the ID of the record that
// holds it: the stream's newest record when the segment extends it, else
// a new one. The store keeps seg itself, so the caller hands it over (see
// wavesegment.Segment).
func (s *Store) Put(seg *wavesegment.Segment) (ID, error) {
	if seg == nil {
		return 0, fmt.Errorf("storage: nil segment")
	}
	if err := seg.Validate(); err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	key := seg.StreamKey()
	tail, hasTail := s.tails[key]
	if hasTail {
		if joined, ok := wavesegment.Extend(tail.seg, seg, s.maxSamples); ok {
			// Copy-on-write: scans already holding tail.seg keep it whole.
			tail.seg = joined
			return tail.id, nil
		}
	}
	id := s.nextID
	s.nextID++
	rec := s.insert(id, seg)
	if !hasTail || seg.StartTime().After(tail.seg.StartTime()) {
		s.tails[key] = rec
	}
	return id, nil
}

// Get returns a copy of the stored segment.
func (s *Store) Get(id ID) (*wavesegment.Segment, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	rec, ok := s.byID[id]
	if !ok {
		return nil, fmt.Errorf("%w: id %d", ErrNotFound, id)
	}
	return rec.seg.Clone(), nil
}

// Delete removes a segment.
func (s *Store) Delete(id ID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	rec, ok := s.byID[id]
	if !ok {
		return fmt.Errorf("%w: id %d", ErrNotFound, id)
	}
	delete(s.byID, id)
	if key := rec.seg.StreamKey(); s.tails[key] == rec {
		delete(s.tails, key)
	}
	for i, r := range s.byStart {
		if r == rec {
			s.byStart = append(s.byStart[:i], s.byStart[i+1:]...)
			break
		}
	}
	return nil
}

// Count returns the number of live segments.
func (s *Store) Count() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.byID)
}

// Query selects stored segments. Zero fields match everything.
type Query struct {
	// Contributor filters by owner.
	Contributor string
	// From/To select segments overlapping [From, To).
	From, To time.Time
	// Channels requires at least one of the named channels.
	Channels []string
	// Region requires the segment location inside the rect.
	Region geo.Rect
	// Limit caps the number of returned segments (0 = unlimited).
	Limit int
}

// Matches reports whether the segment satisfies every filter in q.
// Alternative engines (internal/segstore) apply the same predicate so
// all backends agree on query semantics.
func (q *Query) Matches(seg *wavesegment.Segment) bool { return q.matches(seg) }

func (q *Query) matches(seg *wavesegment.Segment) bool {
	if q.Contributor != "" && seg.Contributor != q.Contributor {
		return false
	}
	if !q.From.IsZero() && !seg.EndTime().After(q.From) {
		return false
	}
	if !q.To.IsZero() && !seg.StartTime().Before(q.To) {
		return false
	}
	if len(q.Channels) > 0 {
		any := false
		for _, c := range q.Channels {
			if seg.HasChannel(c) {
				any = true
				break
			}
		}
		if !any {
			return false
		}
	}
	if !q.Region.IsZero() && !q.Region.Contains(seg.Location) {
		return false
	}
	return true
}

// Result pairs a stored segment with its ID.
type Result struct {
	ID      ID
	Segment *wavesegment.Segment
}

// ScanRefs returns matching records ordered by start time, walking only
// records with StartTime < q.To (binary search) and filtering the rest.
// The returned segments are the store's own records, shared read-only
// (see wavesegment.Segment); Clone one to write into it.
func (s *Store) ScanRefs(q Query) ([]Result, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	hi := len(s.byStart)
	if !q.To.IsZero() {
		hi = sort.Search(len(s.byStart), func(i int) bool {
			return !s.byStart[i].seg.StartTime().Before(q.To)
		})
	}
	var out []Result
	for _, rec := range s.byStart[:hi] {
		if !q.matches(rec.seg) {
			continue
		}
		out = append(out, Result{ID: rec.id, Segment: rec.seg})
		if q.Limit > 0 && len(out) >= q.Limit {
			break
		}
	}
	return out, nil
}

// Close releases the store. Further calls fail with ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

var _ Engine = (*Store)(nil)
