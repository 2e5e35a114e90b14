// Package wavesegment implements SensorSafe's storage ADT: the wave segment
// (paper §5.1, Fig. 5), an extension of the XStream signal-segment type. A
// wave segment is the smallest unit of storage — a compact run of
// multi-channel samples with shared metadata: start time, a uniform sampling
// interval (or per-sample timestamps for adaptive/compressive/episodic
// sampling), a location, and the tuple format. The package also implements
// the wave-segment optimizer that merges timestamp-consecutive segments so
// the backing database holds few large records instead of many tiny ones.
package wavesegment

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"sensorsafe/internal/geo"
)

// Canonical sensor channel names used across the framework. The paper's
// hardware is a Zephyr BioHarness chest band (ECG, respiration, skin
// temperature) plus a smartphone (accelerometer, GPS, microphone).
const (
	ChannelECG         = "ECG"
	ChannelRespiration = "Respiration"
	ChannelSkinTemp    = "SkinTemperature"
	ChannelAccelX      = "AccelX"
	ChannelAccelY      = "AccelY"
	ChannelAccelZ      = "AccelZ"
	ChannelLatitude    = "Latitude"
	ChannelLongitude   = "Longitude"
	ChannelMicrophone  = "Microphone"
	ChannelHeartRate   = "HeartRate"
)

// Annotation marks a time span of a segment with an inferred context label,
// e.g. {Context: "Drive", Start, End}. The phone annotates segments with
// inference output before upload (paper §6); the access-control layer
// evaluates context conditions against these spans.
type Annotation struct {
	Context string    `json:"context"`
	Start   time.Time `json:"start"`
	End     time.Time `json:"end"`
}

// Covers reports whether the annotation span contains instant t ([Start, End)).
func (a Annotation) Covers(t time.Time) bool {
	return !t.Before(a.Start) && t.Before(a.End)
}

// Overlaps reports whether the annotation span intersects [from, to).
func (a Annotation) Overlaps(from, to time.Time) bool {
	return a.Start.Before(to) && from.Before(a.End)
}

// Segment is one wave segment. Channels names the columns of Values; every
// row of Values has exactly len(Channels) entries. If Interval > 0 the
// samples are uniform starting at Start; otherwise Timestamps holds one
// instant per row (non-periodic sampling), stored — as the paper describes —
// as an extra channel inside the value blob when serialized.
//
// Sample data is read-only once a segment is built: nothing writes into
// Values, its rows or Timestamps after the constructor (a decoder, a
// generator, Clone) returns. Slice, Project and Extend rely on that and
// share rows with the segment they derive from instead of copying them,
// and a store hands out its records the same way. A segment handed over
// to Optimizer.Add, a store's Put or a stream hub's Publish (and so to a
// data store's upload) is read-only as a whole: they keep it without
// copying, so the caller writes none of its fields afterwards, Annotate
// included. Call Clone for a copy you may write into.
type Segment struct {
	// Contributor is the data owner's identity.
	Contributor string `json:"contributor,omitempty"`
	// Start is the timestamp of the first sample.
	Start time.Time `json:"start"`
	// Interval is the uniform sampling period; zero means per-sample
	// timestamps are in Timestamps.
	Interval time.Duration `json:"interval"`
	// Location is where the samples were taken. Mobile traces put
	// per-sample coordinates in Latitude/Longitude channels instead and
	// leave Location at the trace origin.
	Location geo.Point `json:"location"`
	// Channels names the columns of Values.
	Channels []string `json:"channels"`
	// Values is the value blob: one row per sample.
	Values [][]float64 `json:"values"`
	// Timestamps holds per-sample instants when Interval == 0.
	Timestamps []time.Time `json:"timestamps,omitempty"`
	// Annotations are inferred context spans covering this segment.
	Annotations []Annotation `json:"annotations,omitempty"`
}

// Validation errors returned by Validate.
var (
	ErrNoChannels    = errors.New("wavesegment: segment has no channels")
	ErrNoSamples     = errors.New("wavesegment: segment has no samples")
	ErrRaggedRow     = errors.New("wavesegment: value row width != channel count")
	ErrBadTimestamps = errors.New("wavesegment: timestamps length != sample count")
	ErrNoTimebase    = errors.New("wavesegment: neither interval nor timestamps set")
	ErrUnsorted      = errors.New("wavesegment: per-sample timestamps not ascending")
	ErrZeroStart     = errors.New("wavesegment: zero start time")
)

// Validate checks the structural invariants of the segment.
func (s *Segment) Validate() error {
	if len(s.Channels) == 0 {
		return ErrNoChannels
	}
	if len(s.Values) == 0 {
		return ErrNoSamples
	}
	seen := make(map[string]struct{}, len(s.Channels))
	for _, c := range s.Channels {
		if c == "" {
			return fmt.Errorf("wavesegment: empty channel name")
		}
		if _, dup := seen[c]; dup {
			return fmt.Errorf("wavesegment: duplicate channel %q", c)
		}
		seen[c] = struct{}{}
	}
	for i, row := range s.Values {
		if len(row) != len(s.Channels) {
			return fmt.Errorf("%w (row %d: %d values, %d channels)", ErrRaggedRow, i, len(row), len(s.Channels))
		}
	}
	if s.Interval <= 0 {
		if len(s.Timestamps) == 0 {
			return ErrNoTimebase
		}
		if len(s.Timestamps) != len(s.Values) {
			return ErrBadTimestamps
		}
		for i := 1; i < len(s.Timestamps); i++ {
			if s.Timestamps[i].Before(s.Timestamps[i-1]) {
				return ErrUnsorted
			}
		}
		if s.Timestamps[0].IsZero() {
			return ErrZeroStart
		}
	} else {
		if len(s.Timestamps) != 0 {
			return fmt.Errorf("wavesegment: both interval and timestamps set")
		}
		if s.Start.IsZero() {
			return ErrZeroStart
		}
	}
	for _, a := range s.Annotations {
		if a.Context == "" || !a.Start.Before(a.End) {
			return fmt.Errorf("wavesegment: invalid annotation %+v", a)
		}
	}
	return nil
}

// NumSamples returns the number of rows in the value blob.
func (s *Segment) NumSamples() int { return len(s.Values) }

// StartTime returns the instant of the first sample.
func (s *Segment) StartTime() time.Time {
	if s.Interval > 0 || len(s.Timestamps) == 0 {
		return s.Start
	}
	return s.Timestamps[0]
}

// EndTime returns the instant just after the last sample: for uniform
// segments Start + n*Interval (so consecutive segments abut exactly), and
// for timestamped segments the last timestamp plus one nanosecond.
func (s *Segment) EndTime() time.Time {
	if s.Interval > 0 {
		return s.Start.Add(time.Duration(len(s.Values)) * s.Interval)
	}
	if len(s.Timestamps) == 0 {
		return s.Start
	}
	return s.Timestamps[len(s.Timestamps)-1].Add(time.Nanosecond)
}

// SampleTime returns the instant of sample i.
func (s *Segment) SampleTime(i int) time.Time {
	if s.Interval > 0 {
		return s.Start.Add(time.Duration(i) * s.Interval)
	}
	return s.Timestamps[i]
}

// Duration returns EndTime - StartTime.
func (s *Segment) Duration() time.Duration { return s.EndTime().Sub(s.StartTime()) }

// StreamKey identifies the sensor stream the segment belongs to: its
// contributor and channel list. Multi-device contributors interleave
// streams with different channel sets, and only segments of one stream
// can merge, so ingest groups and extends by this key.
func (s *Segment) StreamKey() string {
	return strings.Join(append([]string{s.Contributor}, s.Channels...), "\x00")
}

// ChannelIndex returns the column index of a channel name, or -1.
func (s *Segment) ChannelIndex(name string) int {
	for i, c := range s.Channels {
		if c == name {
			return i
		}
	}
	return -1
}

// HasChannel reports whether the segment carries the named channel.
func (s *Segment) HasChannel(name string) bool { return s.ChannelIndex(name) >= 0 }

// Column copies out all values of one channel; ok is false if absent.
func (s *Segment) Column(name string) (vals []float64, ok bool) {
	idx := s.ChannelIndex(name)
	if idx < 0 {
		return nil, false
	}
	vals = make([]float64, len(s.Values))
	for i, row := range s.Values {
		vals[i] = row[idx]
	}
	return vals, true
}

// Clone deep-copies the segment.
func (s *Segment) Clone() *Segment {
	out := &Segment{
		Contributor: s.Contributor,
		Start:       s.Start,
		Interval:    s.Interval,
		Location:    s.Location,
		Channels:    append([]string(nil), s.Channels...),
		Values:      make([][]float64, len(s.Values)),
	}
	for i, row := range s.Values {
		out.Values[i] = append([]float64(nil), row...)
	}
	if s.Timestamps != nil {
		out.Timestamps = append([]time.Time(nil), s.Timestamps...)
	}
	if s.Annotations != nil {
		out.Annotations = append([]Annotation(nil), s.Annotations...)
	}
	return out
}

// Project returns the segment narrowed to the requested channels, in the
// requested order. Channels the segment lacks are skipped. Returns nil if
// none of the channels are present. Projecting onto every channel in its
// stored order shares the sample rows; any other projection copies the
// kept columns into one new backing array. Timestamps and Annotations are
// shared either way (see Segment).
func (s *Segment) Project(channels []string) *Segment {
	idxs := make([]int, 0, len(channels))
	names := make([]string, 0, len(channels))
	for _, name := range channels {
		if i := s.ChannelIndex(name); i >= 0 {
			idxs = append(idxs, i)
			names = append(names, name)
		}
	}
	if len(idxs) == 0 {
		return nil
	}
	out := &Segment{
		Contributor: s.Contributor,
		Start:       s.Start,
		Interval:    s.Interval,
		Location:    s.Location,
		Channels:    names,
		Values:      slices.Clip(s.Values),
		Timestamps:  slices.Clip(s.Timestamps),
		Annotations: slices.Clip(s.Annotations),
	}
	if slices.Equal(names, s.Channels) {
		return out
	}
	k := len(idxs)
	flat := make([]float64, len(s.Values)*k)
	out.Values = make([][]float64, len(s.Values))
	for r, row := range s.Values {
		nr := flat[r*k : (r+1)*k : (r+1)*k]
		for c, idx := range idxs {
			nr[c] = row[idx]
		}
		out.Values[r] = nr
	}
	return out
}

// Slice returns the segment restricted to samples with instants in
// [from, to). Either bound may be zero for "unbounded". Returns nil if no
// samples fall in the window. The result shares the sample rows and
// timestamps of s (see Segment); its Annotations are new, clipped to the
// window.
func (s *Segment) Slice(from, to time.Time) *Segment {
	lo, hi := s.sampleRange(from, to)
	if lo >= hi {
		return nil
	}
	out := &Segment{
		Contributor: s.Contributor,
		Interval:    s.Interval,
		Location:    s.Location,
		Channels:    append([]string(nil), s.Channels...),
		Values:      s.Values[lo:hi:hi],
	}
	if s.Interval > 0 {
		out.Start = s.SampleTime(lo)
	} else {
		out.Timestamps = s.Timestamps[lo:hi:hi]
		out.Start = out.Timestamps[0]
	}
	ss, se := out.StartTime(), out.EndTime()
	for _, a := range s.Annotations {
		if !a.Overlaps(ss, se) {
			continue
		}
		c := a
		if c.Start.Before(ss) {
			c.Start = ss
		}
		if c.End.After(se) {
			c.End = se
		}
		out.Annotations = append(out.Annotations, c)
	}
	return out
}

// sampleRange finds the half-open index range of samples within [from, to).
func (s *Segment) sampleRange(from, to time.Time) (lo, hi int) {
	n := len(s.Values)
	if s.Interval > 0 {
		lo = 0
		if !from.IsZero() && from.After(s.Start) {
			d := from.Sub(s.Start)
			lo = int((d + s.Interval - 1) / s.Interval) // ceil
		}
		hi = n
		if !to.IsZero() {
			if to.Before(s.Start) || to.Equal(s.Start) {
				return 0, 0
			}
			d := to.Sub(s.Start)
			h := int((d + s.Interval - 1) / s.Interval) // first index at or past to
			if h < hi {
				hi = h
			}
		}
		if lo < 0 {
			lo = 0
		}
		if lo > n {
			lo = n
		}
		return lo, hi
	}
	lo = 0
	if !from.IsZero() {
		lo = sort.Search(n, func(i int) bool { return !s.Timestamps[i].Before(from) })
	}
	hi = n
	if !to.IsZero() {
		hi = sort.Search(n, func(i int) bool { return !s.Timestamps[i].Before(to) })
	}
	return lo, hi
}

// Annotate appends a context span, keeping spans sorted by start.
func (s *Segment) Annotate(ctx string, from, to time.Time) error {
	if ctx == "" || !from.Before(to) {
		return fmt.Errorf("wavesegment: invalid annotation %q [%v, %v)", ctx, from, to)
	}
	s.Annotations = append(s.Annotations, Annotation{Context: ctx, Start: from, End: to})
	sort.Slice(s.Annotations, func(i, j int) bool {
		return s.Annotations[i].Start.Before(s.Annotations[j].Start)
	})
	return nil
}

// ContextsAt returns the context labels active at instant t.
func (s *Segment) ContextsAt(t time.Time) []string {
	var out []string
	for _, a := range s.Annotations {
		if a.Covers(t) {
			out = append(out, a.Context)
		}
	}
	return out
}

// ContextsOverlapping returns the distinct context labels whose spans
// intersect [from, to).
func (s *Segment) ContextsOverlapping(from, to time.Time) []string {
	seen := make(map[string]struct{})
	var out []string
	for _, a := range s.Annotations {
		if !a.Overlaps(from, to) {
			continue
		}
		if _, dup := seen[a.Context]; dup {
			continue
		}
		seen[a.Context] = struct{}{}
		out = append(out, a.Context)
	}
	return out
}

// HasContext reports whether any annotation span carries the label.
func (s *Segment) HasContext(ctx string) bool {
	for _, a := range s.Annotations {
		if a.Context == ctx {
			return true
		}
	}
	return false
}

func (s *Segment) String() string {
	return fmt.Sprintf("Segment{%s %v..%v %v %d samples}",
		s.Contributor, s.StartTime().Format(time.RFC3339), s.EndTime().Format(time.RFC3339),
		s.Channels, len(s.Values))
}
