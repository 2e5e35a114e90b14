package wavesegment

import (
	"fmt"
	"sort"
	"time"
)

// MergeTolerance is the slack allowed between one segment's EndTime and the
// next segment's StartTime for them to count as "timestamp consecutive"
// (paper §5.1). Sensor clocks jitter by a fraction of a sample period; we
// accept up to half an interval of drift.
func mergeTolerance(interval time.Duration) time.Duration {
	if interval <= 0 {
		return 0
	}
	return interval / 2
}

// CanMerge reports whether b can be appended to a to form a single wave
// segment: same channels in the same order, same sampling interval, same
// location coordinates, same contributor, and timestamp-consecutive
// (a.EndTime ≈ b.StartTime). Per the paper, merging requires identical
// location coordinates and data channels.
func CanMerge(a, b *Segment) bool {
	if a == nil || b == nil {
		return false
	}
	if a.Contributor != b.Contributor {
		return false
	}
	if a.Interval != b.Interval {
		return false
	}
	if a.Location != b.Location {
		return false
	}
	if len(a.Channels) != len(b.Channels) {
		return false
	}
	for i := range a.Channels {
		if a.Channels[i] != b.Channels[i] {
			return false
		}
	}
	if a.Interval > 0 {
		gap := b.StartTime().Sub(a.EndTime())
		if gap < 0 {
			gap = -gap
		}
		return gap <= mergeTolerance(a.Interval)
	}
	// Timestamped segments merge whenever b starts at or after a ends.
	return !b.StartTime().Before(a.Timestamps[len(a.Timestamps)-1])
}

// Extend is the one merge rule every layer applies: it returns a followed
// by b as one segment when CanMerge holds and the result has at most
// maxSamples samples (0 means no cap). a is left untouched, and the result
// shares a's sample rows (b's are copied), as Segment's read-only contract
// allows.
func Extend(a, b *Segment, maxSamples int) (*Segment, bool) {
	if !CanMerge(a, b) || (maxSamples > 0 && a.NumSamples()+b.NumSamples() > maxSamples) {
		return nil, false
	}
	out := *a
	out.Values = make([][]float64, len(a.Values), len(a.Values)+len(b.Values))
	copy(out.Values, a.Values)
	for _, row := range b.Values {
		out.Values = append(out.Values, append([]float64(nil), row...))
	}
	if a.Interval <= 0 {
		out.Timestamps = append(a.Timestamps[:len(a.Timestamps):len(a.Timestamps)], b.Timestamps...)
	}
	if n := len(a.Annotations) + len(b.Annotations); n > 0 {
		out.Annotations = append(append(make([]Annotation, 0, n), a.Annotations...), b.Annotations...)
		sort.Slice(out.Annotations, func(i, j int) bool {
			return out.Annotations[i].Start.Before(out.Annotations[j].Start)
		})
	}
	return &out, true
}

// Optimizer implements the paper's wave-segment optimization: it buffers
// small ingest packets (e.g. the Zephyr chest band's 64-sample packets) and
// merges timestamp-consecutive, format-identical segments into large ones,
// bounding each at MaxSamples so single records stay manageable.
//
// The zero value is not usable; call NewOptimizer.
type Optimizer struct {
	// MaxSamples caps the size of a merged segment. When a pending segment
	// reaches the cap it is flushed. Zero means no cap.
	MaxSamples int

	pending *Segment
}

// DefaultMaxSamples bounds merged segments at a size that keeps individual
// database records in the low hundreds of kilobytes for typical channel
// counts.
const DefaultMaxSamples = 8192

// NewOptimizer returns an optimizer with the given segment size cap
// (DefaultMaxSamples if maxSamples <= 0).
func NewOptimizer(maxSamples int) *Optimizer {
	if maxSamples <= 0 {
		maxSamples = DefaultMaxSamples
	}
	return &Optimizer{MaxSamples: maxSamples}
}

// Add offers a segment to the optimizer. It returns zero or more completed
// segments that can no longer grow (because the new segment did not merge,
// or the pending segment hit MaxSamples).
func (o *Optimizer) Add(seg *Segment) ([]*Segment, error) {
	if seg == nil {
		return nil, fmt.Errorf("wavesegment: nil segment")
	}
	if err := seg.Validate(); err != nil {
		return nil, err
	}
	var done []*Segment
	if o.pending == nil {
		o.pending = seg
	} else if merged, ok := Extend(o.pending, seg, o.MaxSamples); ok {
		o.pending = merged
	} else {
		done = append(done, o.pending)
		o.pending = seg
	}
	if o.MaxSamples > 0 && o.pending.NumSamples() >= o.MaxSamples {
		done = append(done, o.pending)
		o.pending = nil
	}
	return done, nil
}

// Flush returns the pending segment, if any, and resets the optimizer.
func (o *Optimizer) Flush() []*Segment {
	if o.pending == nil {
		return nil
	}
	out := []*Segment{o.pending}
	o.pending = nil
	return out
}

// OptimizeAll merges an in-order batch of segments, returning the compacted
// list. It is a convenience wrapper over Optimizer for bulk loads.
func OptimizeAll(segs []*Segment, maxSamples int) ([]*Segment, error) {
	o := NewOptimizer(maxSamples)
	var out []*Segment
	for _, s := range segs {
		done, err := o.Add(s)
		if err != nil {
			return nil, err
		}
		out = append(out, done...)
	}
	return append(out, o.Flush()...), nil
}

// Split cuts a segment into pieces of at most maxSamples rows. It returns
// the original segment if it already fits.
func Split(s *Segment, maxSamples int) []*Segment {
	if maxSamples <= 0 || s.NumSamples() <= maxSamples {
		return []*Segment{s}
	}
	var out []*Segment
	for lo := 0; lo < s.NumSamples(); lo += maxSamples {
		hi := lo + maxSamples
		if hi > s.NumSamples() {
			hi = s.NumSamples()
		}
		var from, to time.Time
		from = s.SampleTime(lo)
		if hi < s.NumSamples() {
			to = s.SampleTime(hi)
		}
		part := s.Slice(from, to)
		if part != nil {
			out = append(out, part)
		}
	}
	return out
}
