// Package abstraction applies access-control decisions to wave segments:
// given a rules.Decision it projects away blocked channels, coarsens
// location and timestamps to the granted granularity (Table 1(b)), and
// rewrites context annotations to their granted abstraction level. It also
// implements full segment enforcement, cutting a segment into spans of
// constant decision (at rule time-condition boundaries and context
// annotation edges) and transforming each span independently — this is the
// query/privacy processing module of the paper's Fig. 2.
package abstraction

import (
	"fmt"
	"sort"
	"time"

	"sensorsafe/internal/geo"
	"sensorsafe/internal/rules"
	"sensorsafe/internal/timeutil"
	"sensorsafe/internal/wavesegment"
)

// Release is what a data consumer actually receives for one span of a wave
// segment after enforcement. Its struct tags are the Fig. 5 JSON contract;
// AppendReleases writes the binary frame.
type Release struct {
	// Contributor is the data owner.
	Contributor string `json:"contributor,omitempty"`
	// Start/End delimit the span at the granted time granularity. Both are
	// zero when the time dimension is not shared.
	Start time.Time `json:"start,omitempty"`
	End   time.Time `json:"end,omitempty"`
	// TimeGranularity records how much timestamp precision was granted.
	TimeGranularity timeutil.Granularity `json:"timeGranularity"`
	// Location is the span's location at the granted granularity.
	Location geo.AbstractedLocation `json:"location"`
	// Segment carries the surviving raw channels, nil when none flow. Its
	// timestamps are already coarsened.
	Segment *wavesegment.Segment `json:"segment,omitempty"`
	// Contexts are the abstracted context labels covering the span.
	Contexts []wavesegment.Annotation `json:"contexts,omitempty"`
}

// Empty reports whether the release carries no information at all. A bare
// location (with no sensor data or context it attaches to) does not count:
// the consumer learns nothing actionable from coordinates alone with no
// data, so such releases are suppressed.
func (r *Release) Empty() bool {
	return r.Segment == nil && len(r.Contexts) == 0
}

// Apply transforms one segment under a single constant decision. The
// caller is responsible for the decision actually being constant across the
// segment's span (see EnforceExplained). A nil return means nothing is
// released.
func Apply(d *rules.Decision, seg *wavesegment.Segment, gc geo.Geocoder) (*Release, error) {
	if d == nil || seg == nil {
		return nil, fmt.Errorf("abstraction: nil decision or segment")
	}
	if !d.SharesAnything() {
		return nil, nil
	}

	rel := &Release{
		Contributor:     seg.Contributor,
		TimeGranularity: d.Time,
	}

	// Raw channels that survive channel grants and the dependency closure.
	var keep []string
	for _, ch := range seg.Channels {
		if d.ChannelShared(ch) {
			keep = append(keep, ch)
		}
	}
	if len(keep) > 0 {
		rel.Segment = seg.Project(keep)
	}

	// Context annotations at their granted level.
	for _, a := range seg.Annotations {
		cat, known := rules.LabelCategory(a.Context)
		if !known {
			continue // unknown labels never flow (privacy-safe default)
		}
		label, ok := rules.AbstractLabel(a.Context, d.ContextLevel(cat))
		if !ok {
			continue
		}
		rel.Contexts = append(rel.Contexts, wavesegment.Annotation{
			Context: label, Start: a.Start, End: a.End,
		})
	}
	if rel.Segment != nil {
		rel.Segment.Annotations = nil // annotations travel on the release
	}

	// Location at the granted granularity.
	loc, err := geo.Abstract(gc, seg.Location, d.Location)
	if err != nil {
		return nil, fmt.Errorf("abstraction: %w", err)
	}
	rel.Location = loc

	// Timestamps at the granted granularity.
	if err := coarsenTime(rel, seg, d.Time); err != nil {
		return nil, err
	}

	if rel.Empty() {
		return nil, nil
	}
	return rel, nil
}

// coarsenTime rewrites the release's absolute times to the granted
// granularity. Below raw precision, the segment keeps relative sample
// spacing but its start snaps to the granule boundary; at NotShared the
// span is re-based to the Unix epoch so durations survive but absolute
// instants do not.
func coarsenTime(rel *Release, seg *wavesegment.Segment, g timeutil.Granularity) error {
	start, end := seg.StartTime(), seg.EndTime()
	switch {
	case g == timeutil.GranNotShared:
		epoch := time.Unix(0, 0).UTC()
		shift := epoch.Sub(start)
		rel.Start, rel.End = time.Time{}, time.Time{}
		if rel.Segment != nil {
			shiftSegment(rel.Segment, shift)
		}
		for i := range rel.Contexts {
			rel.Contexts[i].Start = rel.Contexts[i].Start.Add(shift)
			rel.Contexts[i].End = rel.Contexts[i].End.Add(shift)
		}
	case g > timeutil.GranMillisecond:
		newStart := g.Abstract(start)
		shift := newStart.Sub(start)
		rel.Start = newStart
		rel.End = end.Add(shift)
		if rel.Segment != nil {
			shiftSegment(rel.Segment, shift)
		}
		for i := range rel.Contexts {
			rel.Contexts[i].Start = rel.Contexts[i].Start.Add(shift)
			rel.Contexts[i].End = rel.Contexts[i].End.Add(shift)
		}
	default:
		rel.Start, rel.End = start, end
	}
	return nil
}

// shiftSegment moves a released segment's sample instants by d. Its
// timestamps are shared with the stored record (see wavesegment.Segment),
// so the shifted ones go into a new slice: writing through the shared one
// would rewrite the store. It carries no annotations; Apply moved them
// onto the release.
func shiftSegment(s *wavesegment.Segment, d time.Duration) {
	s.Start = s.Start.Add(d)
	if s.Timestamps == nil {
		return
	}
	shifted := make([]time.Time, len(s.Timestamps))
	for i, t := range s.Timestamps {
		shifted[i] = t.Add(d)
	}
	s.Timestamps = shifted
}

// EnforceExplained runs full access control for one consumer over one
// stored segment: it cuts the segment at every instant where the decision
// can change — rule time-condition boundaries and context annotation
// edges — evaluates the rule engine for each span, and transforms each
// span under its decision. Spans that release nothing are dropped. It
// also returns the engine decision behind each release, index-aligned
// with the releases. The decisions are provenance for traces and audit
// trails (matched rule IDs, granted granularities); they stay out of the
// Release shape on purpose so policy structure cannot leak into
// consumer-facing payloads.
func EnforceExplained(e rules.Decider, consumer string, consumerGroups []string, seg *wavesegment.Segment, gc geo.Geocoder) ([]*Release, []*rules.Decision, error) {
	if seg == nil {
		return nil, nil, fmt.Errorf("abstraction: nil segment")
	}
	if err := seg.Validate(); err != nil {
		return nil, nil, err
	}
	start, end := seg.StartTime(), seg.EndTime()
	cuts := spanCuts(e, seg, start, end)

	var out []*Release
	var decisions []*rules.Decision
	for i := 0; i+1 < len(cuts); i++ {
		from, to := cuts[i], cuts[i+1]
		piece := seg.Slice(from, to)
		if piece == nil {
			continue
		}
		req := &rules.Request{
			Consumer:       consumer,
			ConsumerGroups: consumerGroups,
			At:             from,
			Location:       seg.Location,
			ActiveContexts: seg.ContextsAt(from),
		}
		d := e.Decide(req)
		rel, err := Apply(d, piece, gc)
		if err != nil {
			return nil, nil, err
		}
		if rel != nil {
			out = append(out, rel)
			decisions = append(decisions, d)
		}
	}
	return out, decisions, nil
}

// spanCuts returns the sorted cut instants delimiting spans of constant
// decision: segment start/end, rule time boundaries, and annotation edges.
func spanCuts(e rules.Decider, seg *wavesegment.Segment, start, end time.Time) []time.Time {
	cuts := []time.Time{start, end}
	cuts = append(cuts, e.BoundariesWithin(start, end)...)
	for _, a := range seg.Annotations {
		if a.Start.After(start) && a.Start.Before(end) {
			cuts = append(cuts, a.Start)
		}
		if a.End.After(start) && a.End.Before(end) {
			cuts = append(cuts, a.End)
		}
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i].Before(cuts[j]) })
	dedup := cuts[:0]
	for i, t := range cuts {
		if i == 0 || !t.Equal(dedup[len(dedup)-1]) {
			dedup = append(dedup, t)
		}
	}
	return dedup
}
