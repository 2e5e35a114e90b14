package abstraction

import (
	"testing"
	"time"

	"sensorsafe/internal/geo"
	"sensorsafe/internal/rules"
	"sensorsafe/internal/timeutil"
	"sensorsafe/internal/wavesegment"
)

var (
	t0        = time.Date(2011, 2, 16, 10, 13, 45, 0, time.UTC) // a Wednesday
	uclaPoint = geo.Point{Lat: 34.0689, Lon: -118.4452}
	gc        = geo.GridGeocoder{}
)

// fullSegment is 60 s of 10 Hz data with all the paper's channels.
func fullSegment(start time.Time) *wavesegment.Segment {
	chans := []string{
		wavesegment.ChannelECG, wavesegment.ChannelRespiration,
		wavesegment.ChannelAccelX, wavesegment.ChannelMicrophone,
		wavesegment.ChannelSkinTemp,
	}
	s := &wavesegment.Segment{
		Contributor: "alice",
		Start:       start,
		Interval:    100 * time.Millisecond,
		Location:    uclaPoint,
		Channels:    chans,
	}
	for i := 0; i < 600; i++ {
		row := make([]float64, len(chans))
		for j := range row {
			row[j] = float64(i + j)
		}
		s.Values = append(s.Values, row)
	}
	return s
}

func engine(t *testing.T, gaz *geo.Gazetteer, rs ...*rules.Rule) *rules.Engine {
	t.Helper()
	e, err := rules.NewEngine(rs, gaz)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func decide(t *testing.T, e *rules.Engine, consumer string, at time.Time, ctx ...string) *rules.Decision {
	t.Helper()
	return e.Decide(&rules.Request{Consumer: consumer, At: at, Location: uclaPoint, ActiveContexts: ctx})
}

func TestApplyAllowAll(t *testing.T) {
	e := engine(t, nil, &rules.Rule{Action: rules.Allow()})
	seg := fullSegment(t0)
	_ = seg.Annotate(rules.CtxWalk, t0, t0.Add(30*time.Second))

	rel, err := Apply(decide(t, e, "bob", t0), seg, gc)
	if err != nil {
		t.Fatal(err)
	}
	if rel == nil || rel.Segment == nil {
		t.Fatal("allow-all should release the segment")
	}
	if len(rel.Segment.Channels) != 5 {
		t.Errorf("channels = %v", rel.Segment.Channels)
	}
	if rel.Location.Granularity != geo.LocCoordinates || *rel.Location.Point != uclaPoint {
		t.Errorf("location = %+v", rel.Location)
	}
	if !rel.Start.Equal(t0) {
		t.Errorf("start = %v", rel.Start)
	}
	if len(rel.Contexts) != 1 || rel.Contexts[0].Context != rules.CtxWalk {
		t.Errorf("contexts = %v", rel.Contexts)
	}
	if rel.Segment.Annotations != nil {
		t.Error("annotations should travel on the release, not the segment")
	}
}

func TestApplyNothingShared(t *testing.T) {
	e := engine(t, nil) // no rules: default deny
	rel, err := Apply(decide(t, e, "bob", t0), fullSegment(t0), gc)
	if err != nil {
		t.Fatal(err)
	}
	if rel != nil {
		t.Fatalf("default deny must release nothing, got %+v", rel)
	}
}

func TestApplyChannelProjection(t *testing.T) {
	e := engine(t, nil, &rules.Rule{
		Sensors: rules.ExpandSensorNames([]string{"Accelerometer"}),
		Action:  rules.Allow(),
	})
	rel, err := Apply(decide(t, e, "bob", t0), fullSegment(t0), gc)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Segment == nil || len(rel.Segment.Channels) != 1 || rel.Segment.Channels[0] != wavesegment.ChannelAccelX {
		t.Fatalf("segment channels = %v", rel.Segment)
	}
}

func TestApplyClosureDropsRespiration(t *testing.T) {
	// Smoking hidden -> respiration raw blocked, context labels abstracted.
	e := engine(t, nil,
		&rules.Rule{Action: rules.Allow()},
		&rules.Rule{Action: rules.Abstract(rules.AbstractionSpec{
			Contexts: map[rules.Category]rules.Level{rules.CategorySmoking: rules.LevelNotShared},
		})},
	)
	seg := fullSegment(t0)
	_ = seg.Annotate(rules.CtxSmoking, t0, t0.Add(10*time.Second))
	_ = seg.Annotate(rules.CtxStressed, t0, t0.Add(10*time.Second))

	rel, err := Apply(decide(t, e, "bob", t0), seg, gc)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Segment.HasChannel(wavesegment.ChannelRespiration) {
		t.Error("respiration must be projected away")
	}
	if !rel.Segment.HasChannel(wavesegment.ChannelECG) {
		t.Error("ECG should survive")
	}
	for _, c := range rel.Contexts {
		if c.Context == rules.CtxSmoking {
			t.Error("smoking annotation must not be released")
		}
	}
	found := false
	for _, c := range rel.Contexts {
		if c.Context == rules.CtxStressed {
			found = true
		}
	}
	if !found {
		t.Error("stress annotation should be released")
	}
}

func TestApplyActivityBinaryAbstraction(t *testing.T) {
	e := engine(t, nil, &rules.Rule{
		Sensors: rules.ExpandSensorNames([]string{"Accelerometer"}),
		Action: rules.Abstract(rules.AbstractionSpec{
			Contexts: map[rules.Category]rules.Level{rules.CategoryActivity: rules.LevelBinary},
		}),
	})
	seg := fullSegment(t0)
	_ = seg.Annotate(rules.CtxDrive, t0, t0.Add(20*time.Second))
	_ = seg.Annotate(rules.CtxStill, t0.Add(20*time.Second), t0.Add(40*time.Second))

	rel, err := Apply(decide(t, e, "bob", t0), seg, gc)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Segment != nil {
		t.Errorf("raw accel must be blocked at binary level, got %v", rel.Segment)
	}
	if len(rel.Contexts) != 2 {
		t.Fatalf("contexts = %v", rel.Contexts)
	}
	if rel.Contexts[0].Context != rules.CtxMoving || rel.Contexts[1].Context != rules.CtxNotMoving {
		t.Errorf("abstracted labels = %v, %v", rel.Contexts[0].Context, rel.Contexts[1].Context)
	}
}

func TestApplyLocationAbstraction(t *testing.T) {
	city := geo.LocCity
	e := engine(t, nil,
		&rules.Rule{Action: rules.Allow()},
		&rules.Rule{Action: rules.Abstract(rules.AbstractionSpec{Location: &city})})
	rel, err := Apply(decide(t, e, "bob", t0), fullSegment(t0), gc)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Location.Granularity != geo.LocCity || rel.Location.Point != nil {
		t.Errorf("location = %+v", rel.Location)
	}
	addr, _ := gc.ReverseGeocode(uclaPoint)
	if rel.Location.Text != addr.City {
		t.Errorf("city = %q, want %q", rel.Location.Text, addr.City)
	}
}

func TestApplyTimeAbstractionHour(t *testing.T) {
	hour := timeutil.GranHour
	e := engine(t, nil,
		&rules.Rule{Action: rules.Allow()},
		&rules.Rule{Action: rules.Abstract(rules.AbstractionSpec{Time: &hour})})
	seg := fullSegment(t0) // starts 10:13:45
	_ = seg.Annotate(rules.CtxWalk, t0, t0.Add(10*time.Second))
	rel, err := Apply(decide(t, e, "bob", t0), seg, gc)
	if err != nil {
		t.Fatal(err)
	}
	wantStart := time.Date(2011, 2, 16, 10, 0, 0, 0, time.UTC)
	if !rel.Start.Equal(wantStart) {
		t.Errorf("release start = %v, want %v", rel.Start, wantStart)
	}
	if !rel.Segment.StartTime().Equal(wantStart) {
		t.Errorf("segment start = %v", rel.Segment.StartTime())
	}
	// Duration preserved.
	if rel.End.Sub(rel.Start) != 60*time.Second {
		t.Errorf("duration = %v", rel.End.Sub(rel.Start))
	}
	// Annotation shifted by the same delta.
	if !rel.Contexts[0].Start.Equal(wantStart) {
		t.Errorf("annotation start = %v", rel.Contexts[0].Start)
	}
	if rel.TimeGranularity != timeutil.GranHour {
		t.Errorf("granularity = %v", rel.TimeGranularity)
	}
}

func TestApplyTimeNotShared(t *testing.T) {
	ns := timeutil.GranNotShared
	e := engine(t, nil,
		&rules.Rule{Action: rules.Allow()},
		&rules.Rule{Action: rules.Abstract(rules.AbstractionSpec{Time: &ns})})
	seg := fullSegment(t0)
	rel, err := Apply(decide(t, e, "bob", t0), seg, gc)
	if err != nil {
		t.Fatal(err)
	}
	if !rel.Start.IsZero() || !rel.End.IsZero() {
		t.Errorf("times must be withheld: %v..%v", rel.Start, rel.End)
	}
	if !rel.Segment.StartTime().Equal(time.Unix(0, 0).UTC()) {
		t.Errorf("segment should be re-based to epoch, got %v", rel.Segment.StartTime())
	}
	if rel.Segment.Duration() != 60*time.Second {
		t.Errorf("duration must survive: %v", rel.Segment.Duration())
	}
}

func TestApplyUnknownContextLabelNeverFlows(t *testing.T) {
	e := engine(t, nil, &rules.Rule{Action: rules.Allow()})
	seg := fullSegment(t0)
	seg.Annotations = []wavesegment.Annotation{{Context: "SecretCustomLabel", Start: t0, End: t0.Add(time.Second)}}
	rel, err := Apply(decide(t, e, "bob", t0), seg, gc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Contexts) != 0 {
		t.Errorf("unknown labels must not flow: %v", rel.Contexts)
	}
}

func TestApplyNilArgs(t *testing.T) {
	if _, err := Apply(nil, fullSegment(t0), gc); err == nil {
		t.Error("nil decision should error")
	}
	e := engine(t, nil, &rules.Rule{Action: rules.Allow()})
	if _, err := Apply(decide(t, e, "bob", t0), nil, gc); err == nil {
		t.Error("nil segment should error")
	}
}

func TestEnforceContextSpans(t *testing.T) {
	// Fig. 4 scenario end-to-end on one segment: conversation in the middle
	// third hides stress (and blocks ECG/Respiration raw) only there.
	rsJSON := `[
	  {"Consumer": ["Bob"], "Action": "Allow"},
	  {"Consumer": ["Bob"], "Context": ["Conversation"],
	   "Action": {"Abstraction": {"Stress": "NotShared"}}}
	]`
	rs, err := rules.UnmarshalRuleSet([]byte(rsJSON))
	if err != nil {
		t.Fatal(err)
	}
	e := engine(t, nil, rs...)
	seg := fullSegment(t0) // 60 s
	_ = seg.Annotate(rules.CtxConversation, t0.Add(20*time.Second), t0.Add(40*time.Second))

	rels, _, err := EnforceExplained(e, "Bob", nil, seg, gc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) != 3 {
		t.Fatalf("expected 3 spans, got %d", len(rels))
	}
	// Span 1: 0-20 s, full access.
	if !rels[0].Segment.HasChannel(wavesegment.ChannelECG) {
		t.Error("span 1 should include ECG")
	}
	if rels[0].Segment.NumSamples() != 200 {
		t.Errorf("span 1 samples = %d", rels[0].Segment.NumSamples())
	}
	// Span 2: 20-40 s, conversation active: ECG/Respiration blocked.
	if rels[1].Segment.HasChannel(wavesegment.ChannelECG) || rels[1].Segment.HasChannel(wavesegment.ChannelRespiration) {
		t.Error("span 2 must block stress-bearing channels")
	}
	if !rels[1].Segment.HasChannel(wavesegment.ChannelAccelX) {
		t.Error("span 2 should keep accel")
	}
	// Conversation annotation itself still flows (it was not abstracted).
	if len(rels[1].Contexts) != 1 || rels[1].Contexts[0].Context != rules.CtxConversation {
		t.Errorf("span 2 contexts = %v", rels[1].Contexts)
	}
	// Span 3: 40-60 s, full again.
	if !rels[2].Segment.HasChannel(wavesegment.ChannelECG) {
		t.Error("span 3 should include ECG")
	}
	// No samples lost or duplicated across spans.
	total := 0
	for _, r := range rels {
		total += r.Segment.NumSamples()
	}
	if total != 600 {
		t.Errorf("total samples across spans = %d, want 600", total)
	}
}

func TestEnforceTimeBoundaries(t *testing.T) {
	// A repeat-time rule boundary falls inside the segment: the decision
	// changes at 10:14 even though no annotation edge is there.
	rep, _ := timeutil.ParseRepeated(nil, []string{"10:14am", "11:00am"})
	e := engine(t, nil, &rules.Rule{RepeatTimes: []timeutil.Repeated{rep}, Action: rules.Allow()})
	seg := fullSegment(t0) // 10:13:45 .. 10:14:45
	rels, _, err := EnforceExplained(e, "Bob", nil, seg, gc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) != 1 {
		t.Fatalf("expected 1 released span, got %d", len(rels))
	}
	wantStart := time.Date(2011, 2, 16, 10, 14, 0, 0, time.UTC)
	if !rels[0].Start.Equal(wantStart) {
		t.Errorf("released span starts %v, want %v", rels[0].Start, wantStart)
	}
	if rels[0].Segment.NumSamples() != 450 {
		t.Errorf("released samples = %d, want 450", rels[0].Segment.NumSamples())
	}
}

func TestEnforceDenyWhileDriving(t *testing.T) {
	e := engine(t, nil,
		&rules.Rule{Action: rules.Allow()},
		&rules.Rule{Contexts: []string{rules.CtxDrive}, Action: rules.Deny()},
	)
	seg := fullSegment(t0)
	_ = seg.Annotate(rules.CtxDrive, t0.Add(30*time.Second), t0.Add(60*time.Second))
	rels, _, err := EnforceExplained(e, "Bob", nil, seg, gc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) != 1 {
		t.Fatalf("expected only the non-driving span, got %d releases", len(rels))
	}
	if rels[0].Segment.NumSamples() != 300 {
		t.Errorf("released samples = %d, want 300", rels[0].Segment.NumSamples())
	}
	if !rels[0].End.Equal(t0.Add(30 * time.Second)) {
		t.Errorf("release ends %v", rels[0].End)
	}
}

func TestEnforceInvalidSegment(t *testing.T) {
	e := engine(t, nil, &rules.Rule{Action: rules.Allow()})
	if _, _, err := EnforceExplained(e, "Bob", nil, &wavesegment.Segment{}, gc); err == nil {
		t.Error("invalid segment should error")
	}
	if _, _, err := EnforceExplained(e, "Bob", nil, nil, gc); err == nil {
		t.Error("nil segment should error")
	}
}

func TestReleaseEmpty(t *testing.T) {
	r := &Release{}
	if !r.Empty() {
		t.Error("zero release should be empty")
	}
	r.Contexts = []wavesegment.Annotation{{Context: "Walk"}}
	if r.Empty() {
		t.Error("release with contexts is not empty")
	}
}
