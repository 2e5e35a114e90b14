package wavesegment

import (
	"errors"
	"math"
	"testing"
	"time"

	"sensorsafe/internal/geo"
)

var (
	t0   = time.Date(2011, 2, 16, 10, 0, 0, 0, time.UTC)
	ucla = geo.Point{Lat: 34.0689, Lon: -118.4452}
)

// uniformSegment builds an n-sample uniform segment at 10 Hz whose values
// encode their own (row, col) position for easy checking.
func uniformSegment(start time.Time, n int, channels ...string) *Segment {
	if len(channels) == 0 {
		channels = []string{ChannelECG, ChannelRespiration}
	}
	s := &Segment{
		Contributor: "alice",
		Start:       start,
		Interval:    100 * time.Millisecond,
		Location:    ucla,
		Channels:    channels,
	}
	for i := 0; i < n; i++ {
		row := make([]float64, len(channels))
		for j := range row {
			row[j] = float64(i*10 + j)
		}
		s.Values = append(s.Values, row)
	}
	return s
}

func timestampedSegment(start time.Time, gaps ...time.Duration) *Segment {
	s := &Segment{
		Contributor: "alice",
		Location:    ucla,
		Channels:    []string{ChannelMicrophone},
	}
	at := start
	for i, g := range gaps {
		at = at.Add(g)
		s.Timestamps = append(s.Timestamps, at)
		s.Values = append(s.Values, []float64{float64(i)})
	}
	s.Start = s.Timestamps[0]
	return s
}

func TestValidate(t *testing.T) {
	good := uniformSegment(t0, 5)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid segment rejected: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(*Segment)
		want   error
	}{
		{"no channels", func(s *Segment) { s.Channels = nil }, ErrNoChannels},
		{"no samples", func(s *Segment) { s.Values = nil }, ErrNoSamples},
		{"ragged row", func(s *Segment) { s.Values[2] = []float64{1} }, ErrRaggedRow},
		{"zero start", func(s *Segment) { s.Start = time.Time{} }, ErrZeroStart},
		{"no timebase", func(s *Segment) { s.Interval = 0 }, ErrNoTimebase},
	}
	for _, tc := range cases {
		s := uniformSegment(t0, 5)
		tc.mutate(s)
		err := s.Validate()
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: Validate = %v, want %v", tc.name, err, tc.want)
		}
	}

	dup := uniformSegment(t0, 3, ChannelECG, ChannelECG)
	if err := dup.Validate(); err == nil {
		t.Error("duplicate channel names should be rejected")
	}
	empty := uniformSegment(t0, 3, "")
	if err := empty.Validate(); err == nil {
		t.Error("empty channel name should be rejected")
	}

	ts := timestampedSegment(t0, 0, time.Second, time.Second)
	if err := ts.Validate(); err != nil {
		t.Fatalf("timestamped segment rejected: %v", err)
	}
	ts.Timestamps[2] = ts.Timestamps[0].Add(-time.Hour)
	if err := ts.Validate(); !errors.Is(err, ErrUnsorted) {
		t.Errorf("unsorted timestamps: got %v", err)
	}

	both := uniformSegment(t0, 3)
	both.Timestamps = []time.Time{t0, t0, t0}
	if err := both.Validate(); err == nil {
		t.Error("segment with both interval and timestamps should be rejected")
	}

	badAnn := uniformSegment(t0, 3)
	badAnn.Annotations = []Annotation{{Context: "Drive", Start: t0, End: t0}}
	if err := badAnn.Validate(); err == nil {
		t.Error("empty annotation span should be rejected")
	}
}

func TestTimesAndSamples(t *testing.T) {
	s := uniformSegment(t0, 10)
	if s.NumSamples() != 10 {
		t.Fatalf("NumSamples = %d", s.NumSamples())
	}
	if !s.StartTime().Equal(t0) {
		t.Errorf("StartTime = %v", s.StartTime())
	}
	if want := t0.Add(time.Second); !s.EndTime().Equal(want) {
		t.Errorf("EndTime = %v, want %v", s.EndTime(), want)
	}
	if want := t0.Add(300 * time.Millisecond); !s.SampleTime(3).Equal(want) {
		t.Errorf("SampleTime(3) = %v", s.SampleTime(3))
	}
	if s.Duration() != time.Second {
		t.Errorf("Duration = %v", s.Duration())
	}

	ts := timestampedSegment(t0, 0, 2*time.Second, 3*time.Second)
	if !ts.StartTime().Equal(t0) {
		t.Errorf("timestamped StartTime = %v", ts.StartTime())
	}
	if want := t0.Add(5*time.Second + time.Nanosecond); !ts.EndTime().Equal(want) {
		t.Errorf("timestamped EndTime = %v, want %v", ts.EndTime(), want)
	}
}

func TestChannelAccess(t *testing.T) {
	s := uniformSegment(t0, 4)
	if s.ChannelIndex(ChannelRespiration) != 1 || s.ChannelIndex("nope") != -1 {
		t.Error("ChannelIndex wrong")
	}
	if !s.HasChannel(ChannelECG) || s.HasChannel("nope") {
		t.Error("HasChannel wrong")
	}
	col, ok := s.Column(ChannelRespiration)
	if !ok || len(col) != 4 || col[2] != 21 {
		t.Errorf("Column = %v, %v", col, ok)
	}
	if _, ok := s.Column("nope"); ok {
		t.Error("Column of missing channel should miss")
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := uniformSegment(t0, 3)
	s.Annotations = []Annotation{{Context: "Walk", Start: t0, End: t0.Add(time.Second)}}
	c := s.Clone()
	c.Values[0][0] = 999
	c.Channels[0] = "Mutated"
	c.Annotations[0].Context = "Run"
	if s.Values[0][0] == 999 || s.Channels[0] == "Mutated" || s.Annotations[0].Context == "Run" {
		t.Error("Clone shares memory with original")
	}
}

func TestProjectAndDrop(t *testing.T) {
	s := uniformSegment(t0, 3, ChannelECG, ChannelRespiration, ChannelSkinTemp)
	p := s.Project([]string{ChannelSkinTemp, ChannelECG})
	if p == nil || len(p.Channels) != 2 || p.Channels[0] != ChannelSkinTemp || p.Channels[1] != ChannelECG {
		t.Fatalf("Project = %v", p)
	}
	if p.Values[1][0] != 12 || p.Values[1][1] != 10 {
		t.Errorf("projected values wrong: %v", p.Values)
	}
	if got := s.Project([]string{"nope"}); got != nil {
		t.Error("projecting absent channels should return nil")
	}
	// Requesting a mix keeps only present ones.
	p = s.Project([]string{"nope", ChannelECG})
	if p == nil || len(p.Channels) != 1 {
		t.Fatalf("mixed Project = %v", p)
	}
}

// TestSliceAndProjectShareRows pins the read-only contract: Slice and a
// full Project share the parent's sample rows, an append to a slice
// cannot reach the parent's arrays, and a narrowing Project copies.
func TestSliceAndProjectShareRows(t *testing.T) {
	s := uniformSegment(t0, 10, ChannelECG, ChannelRespiration, ChannelSkinTemp)
	sl := s.Slice(s.SampleTime(2), s.SampleTime(5))
	if sl.NumSamples() != 3 || &sl.Values[0][0] != &s.Values[2][0] {
		t.Fatalf("Slice = %v, want rows 2..4 shared", sl)
	}
	_ = append(sl.Values, []float64{-1, -1, -1})
	if s.Values[5][0] == -1 {
		t.Error("appending to a slice overwrote the parent's row 5")
	}
	ts := timestampedSegment(t0, time.Second, time.Second, time.Second, time.Second)
	tsl := ts.Slice(ts.Timestamps[1], ts.Timestamps[3])
	_ = append(tsl.Timestamps, time.Time{})
	if ts.Timestamps[3].IsZero() {
		t.Error("appending to a slice's timestamps overwrote the parent's")
	}

	if p := s.Project(s.Channels); &p.Values[0][0] != &s.Values[0][0] {
		t.Error("projecting onto every channel in stored order copied the rows")
	}
	p := s.Project([]string{ChannelSkinTemp, ChannelECG})
	p.Values[0][0] = -1
	if s.Values[0][2] == -1 || s.Values[0][0] == -1 {
		t.Error("a narrowing Project shares the parent's rows")
	}
}

func TestSliceUniform(t *testing.T) {
	s := uniformSegment(t0, 10) // samples at t0 + 0..900ms
	got := s.Slice(t0.Add(250*time.Millisecond), t0.Add(650*time.Millisecond))
	if got == nil {
		t.Fatal("slice empty")
	}
	// Samples at 300, 400, 500, 600 ms.
	if got.NumSamples() != 4 {
		t.Fatalf("slice has %d samples, want 4", got.NumSamples())
	}
	if !got.StartTime().Equal(t0.Add(300 * time.Millisecond)) {
		t.Errorf("slice StartTime = %v", got.StartTime())
	}
	if got.Values[0][0] != 30 {
		t.Errorf("first sliced value = %v", got.Values[0][0])
	}

	if s.Slice(t0.Add(time.Hour), time.Time{}) != nil {
		t.Error("slice past end should be nil")
	}
	if s.Slice(time.Time{}, t0) != nil {
		t.Error("slice before start should be nil")
	}
	full := s.Slice(time.Time{}, time.Time{})
	if full.NumSamples() != 10 {
		t.Errorf("unbounded slice = %d samples", full.NumSamples())
	}
	// Exact sample boundary: from inclusive, to exclusive.
	b := s.Slice(t0.Add(200*time.Millisecond), t0.Add(400*time.Millisecond))
	if b.NumSamples() != 2 || b.Values[0][0] != 20 {
		t.Errorf("boundary slice = %v", b.Values)
	}
}

func TestSliceTimestamped(t *testing.T) {
	s := timestampedSegment(t0, 0, time.Second, time.Second, 5*time.Second) // t0, +1s, +2s, +7s
	got := s.Slice(t0.Add(time.Second), t0.Add(3*time.Second))
	if got == nil || got.NumSamples() != 2 {
		t.Fatalf("slice = %v", got)
	}
	if !got.Timestamps[0].Equal(t0.Add(time.Second)) {
		t.Errorf("slice timestamps = %v", got.Timestamps)
	}
	if err := got.Validate(); err != nil {
		t.Errorf("sliced timestamped segment invalid: %v", err)
	}
}

func TestSliceClipsAnnotations(t *testing.T) {
	s := uniformSegment(t0, 10)
	if err := s.Annotate("Drive", t0, t0.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := s.Annotate("Stress", t0.Add(800*time.Millisecond), t0.Add(900*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	got := s.Slice(t0.Add(200*time.Millisecond), t0.Add(500*time.Millisecond))
	if len(got.Annotations) != 1 {
		t.Fatalf("annotations = %v", got.Annotations)
	}
	a := got.Annotations[0]
	if a.Context != "Drive" || !a.Start.Equal(got.StartTime()) || !a.End.Equal(got.EndTime()) {
		t.Errorf("clipped annotation = %+v (segment %v..%v)", a, got.StartTime(), got.EndTime())
	}
}

func TestAnnotations(t *testing.T) {
	s := uniformSegment(t0, 10)
	if err := s.Annotate("", t0, t0.Add(time.Second)); err == nil {
		t.Error("empty context should be rejected")
	}
	if err := s.Annotate("Walk", t0.Add(time.Second), t0); err == nil {
		t.Error("inverted span should be rejected")
	}
	must := func(ctx string, from, to time.Time) {
		t.Helper()
		if err := s.Annotate(ctx, from, to); err != nil {
			t.Fatal(err)
		}
	}
	must("Stress", t0.Add(500*time.Millisecond), t0.Add(900*time.Millisecond))
	must("Drive", t0, t0.Add(time.Second))

	if s.Annotations[0].Context != "Drive" {
		t.Error("annotations should be sorted by start")
	}
	at := s.ContextsAt(t0.Add(600 * time.Millisecond))
	if len(at) != 2 {
		t.Errorf("ContextsAt = %v", at)
	}
	at = s.ContextsAt(t0.Add(100 * time.Millisecond))
	if len(at) != 1 || at[0] != "Drive" {
		t.Errorf("ContextsAt = %v", at)
	}
	over := s.ContextsOverlapping(t0.Add(450*time.Millisecond), t0.Add(550*time.Millisecond))
	if len(over) != 2 {
		t.Errorf("ContextsOverlapping = %v", over)
	}
	if !s.HasContext("Stress") || s.HasContext("Smoke") {
		t.Error("HasContext wrong")
	}
}

func TestCanMergeAndMerge(t *testing.T) {
	a := uniformSegment(t0, 10)
	b := uniformSegment(t0.Add(time.Second), 10)
	if !CanMerge(a, b) {
		t.Fatal("consecutive segments should merge")
	}
	m, ok := Extend(a, b, 0)
	if !ok {
		t.Fatal("Extend refused segments CanMerge accepts")
	}
	if m.NumSamples() != 20 {
		t.Errorf("merged samples = %d", m.NumSamples())
	}
	if !m.EndTime().Equal(t0.Add(2 * time.Second)) {
		t.Errorf("merged EndTime = %v", m.EndTime())
	}
	if err := m.Validate(); err != nil {
		t.Errorf("merged segment invalid: %v", err)
	}

	// Small clock jitter within half an interval is tolerated.
	c := uniformSegment(t0.Add(time.Second+30*time.Millisecond), 5)
	if !CanMerge(a, c) {
		t.Error("jitter within tolerance should merge")
	}
	// A real gap does not merge.
	d := uniformSegment(t0.Add(2*time.Second), 5)
	if CanMerge(a, d) {
		t.Error("gap of a full second should not merge")
	}

	cases := []struct {
		name   string
		mutate func(*Segment)
	}{
		{"different channels", func(s *Segment) { s.Channels = []string{ChannelECG, ChannelSkinTemp} }},
		{"different location", func(s *Segment) { s.Location.Lat += 1 }},
		{"different interval", func(s *Segment) { s.Interval *= 2 }},
		{"different contributor", func(s *Segment) { s.Contributor = "bob" }},
	}
	for _, tc := range cases {
		b2 := uniformSegment(t0.Add(time.Second), 10)
		tc.mutate(b2)
		if CanMerge(a, b2) {
			t.Errorf("%s: should not merge", tc.name)
		}
		if _, ok := Extend(a, b2, 0); ok {
			t.Errorf("%s: Extend should refuse", tc.name)
		}
	}
	if CanMerge(nil, a) || CanMerge(a, nil) {
		t.Error("nil segments should not merge")
	}
}

// TestExtend: the shared merge rule joins only under CanMerge and the cap,
// leaves a as it was, and does not alias b.
func TestExtend(t *testing.T) {
	a := uniformSegment(t0, 10)
	b := uniformSegment(t0.Add(time.Second), 10)
	if _, ok := Extend(a, b, 19); ok {
		t.Error("Extend past the cap")
	}
	if _, ok := Extend(a, uniformSegment(t0.Add(2*time.Second), 10), 0); ok {
		t.Error("Extend across a gap")
	}
	m, ok := Extend(a, b, 20)
	if !ok || m.NumSamples() != 20 || m.Validate() != nil {
		t.Fatalf("Extend = %v, %v", m, ok)
	}
	if a.NumSamples() != 10 {
		t.Errorf("Extend changed a: %d samples", a.NumSamples())
	}
	b.Values[0][0] = -1
	if m.Values[10][0] == -1 {
		t.Error("Extend aliased b's rows")
	}
}

func TestStreamKey(t *testing.T) {
	a := uniformSegment(t0, 1)
	b := uniformSegment(t0.Add(time.Hour), 1)
	if a.StreamKey() != b.StreamKey() {
		t.Error("segments of one stream have different keys")
	}
	b.Channels = []string{ChannelECG, ChannelSkinTemp}
	if a.StreamKey() == b.StreamKey() {
		t.Error("different channel lists share a key")
	}
	b.Channels, b.Contributor = a.Channels, "bob"
	if a.StreamKey() == b.StreamKey() {
		t.Error("different contributors share a key")
	}
}

func TestMergeTimestamped(t *testing.T) {
	a := timestampedSegment(t0, 0, time.Second)
	b := timestampedSegment(t0.Add(5*time.Second), 0, time.Second)
	if !CanMerge(a, b) {
		t.Fatal("later timestamped segment should merge")
	}
	m, ok := Extend(a, b, 0)
	if !ok {
		t.Fatal("Extend refused later timestamped segment")
	}
	if m.NumSamples() != 4 || len(m.Timestamps) != 4 {
		t.Fatalf("merged = %v", m)
	}
	if err := m.Validate(); err != nil {
		t.Errorf("merged timestamped segment invalid: %v", err)
	}
	// Out-of-order timestamped segments must not merge.
	if CanMerge(b, a) {
		t.Error("earlier segment should not merge after later one")
	}
}

func TestMergeKeepsAnnotationsSorted(t *testing.T) {
	a := uniformSegment(t0, 10)
	_ = a.Annotate("Walk", t0.Add(500*time.Millisecond), t0.Add(time.Second))
	b := uniformSegment(t0.Add(time.Second), 10)
	_ = b.Annotate("Run", t0.Add(time.Second), t0.Add(2*time.Second))
	m, ok := Extend(a, b, 0)
	if !ok {
		t.Fatal("Extend refused consecutive segments")
	}
	if len(m.Annotations) != 2 || m.Annotations[0].Context != "Walk" {
		t.Errorf("merged annotations = %v", m.Annotations)
	}
}

func TestOptimizer(t *testing.T) {
	o := NewOptimizer(64)
	var done []*Segment
	// 16-sample packets, 10 Hz: each spans 1.6 s.
	for i := 0; i < 8; i++ {
		segs, err := o.Add(uniformSegment(t0.Add(time.Duration(i)*1600*time.Millisecond), 16))
		if err != nil {
			t.Fatal(err)
		}
		done = append(done, segs...)
	}
	done = append(done, o.Flush()...)
	if len(done) != 2 {
		t.Fatalf("optimizer produced %d segments, want 2", len(done))
	}
	for _, s := range done {
		if s.NumSamples() != 64 {
			t.Errorf("segment has %d samples, want 64", s.NumSamples())
		}
		if err := s.Validate(); err != nil {
			t.Errorf("optimized segment invalid: %v", err)
		}
	}
	if o.Flush() != nil {
		t.Error("second Flush should be empty")
	}
}

func TestOptimizerBreaksOnGap(t *testing.T) {
	o := NewOptimizer(0)
	if _, err := o.Add(uniformSegment(t0, 16)); err != nil {
		t.Fatal(err)
	}
	done, err := o.Add(uniformSegment(t0.Add(time.Hour), 16))
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 1 || done[0].NumSamples() != 16 {
		t.Fatalf("gap should flush pending: %v", done)
	}
	rest := o.Flush()
	if len(rest) != 1 || !rest[0].StartTime().Equal(t0.Add(time.Hour)) {
		t.Fatalf("Flush = %v", rest)
	}
}

func TestOptimizerRejectsInvalid(t *testing.T) {
	o := NewOptimizer(0)
	if _, err := o.Add(&Segment{}); err == nil {
		t.Error("invalid segment should be rejected")
	}
	if _, err := o.Add(nil); err == nil {
		t.Error("nil segment should be rejected")
	}
}

func TestOptimizeAll(t *testing.T) {
	var segs []*Segment
	for i := 0; i < 100; i++ {
		segs = append(segs, uniformSegment(t0.Add(time.Duration(i*64)*100*time.Millisecond), 64))
	}
	out, err := OptimizeAll(segs, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// 100 packets * 64 = 6400 samples; cap 1000 but merging only up to cap:
	// 15 packets * 64 = 960 fits, 16th would exceed -> segments of 960.
	total := 0
	for _, s := range out {
		total += s.NumSamples()
		if s.NumSamples() > 1000 {
			t.Errorf("segment exceeds cap: %d", s.NumSamples())
		}
	}
	if total != 6400 {
		t.Errorf("samples lost: %d/6400", total)
	}
	if len(out) >= 100 {
		t.Errorf("no compaction happened: %d records", len(out))
	}
}

func TestSplit(t *testing.T) {
	s := uniformSegment(t0, 100)
	parts := Split(s, 30)
	if len(parts) != 4 {
		t.Fatalf("Split produced %d parts", len(parts))
	}
	total := 0
	for i, p := range parts {
		total += p.NumSamples()
		if err := p.Validate(); err != nil {
			t.Errorf("part %d invalid: %v", i, err)
		}
	}
	if total != 100 {
		t.Errorf("samples lost in split: %d", total)
	}
	if parts[3].NumSamples() != 10 {
		t.Errorf("last part = %d samples", parts[3].NumSamples())
	}
	if !parts[1].StartTime().Equal(t0.Add(3 * time.Second)) {
		t.Errorf("part 1 start = %v", parts[1].StartTime())
	}
	whole := Split(s, 1000)
	if len(whole) != 1 || whole[0] != s {
		t.Error("Split under cap should return original")
	}
}

func TestSplitMergeRoundTrip(t *testing.T) {
	s := uniformSegment(t0, 256)
	parts := Split(s, 64)
	merged, err := OptimizeAll(parts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != 1 {
		t.Fatalf("round trip produced %d segments", len(merged))
	}
	m := merged[0]
	if m.NumSamples() != 256 || !m.StartTime().Equal(s.StartTime()) || !m.EndTime().Equal(s.EndTime()) {
		t.Errorf("round trip mismatch: %v vs %v", m, s)
	}
	for i := range s.Values {
		for j := range s.Values[i] {
			if math.Abs(s.Values[i][j]-m.Values[i][j]) > 0 {
				t.Fatalf("value (%d,%d) mismatch", i, j)
			}
		}
	}
}
