package abstraction

import (
	"testing"
	"time"

	"sensorsafe/internal/geo"
	"sensorsafe/internal/rules"
	"sensorsafe/internal/wavesegment"
)

func TestSummarize(t *testing.T) {
	seg := &wavesegment.Segment{
		Contributor: "alice", Start: t0, Interval: time.Second,
		Location: uclaPoint,
		Channels: []string{wavesegment.ChannelECG},
		Values:   [][]float64{{1}, {3}, {5}},
	}
	rels := []*Release{
		{
			Contributor: "alice", Start: t0, End: t0.Add(3 * time.Second),
			Segment: seg,
			Contexts: []wavesegment.Annotation{
				{Context: rules.CtxWalk, Start: t0, End: t0.Add(2 * time.Second)},
			},
		},
		{
			Contributor: "bob", Start: t0.Add(time.Minute), End: t0.Add(2 * time.Minute),
			Contexts: []wavesegment.Annotation{
				{Context: rules.CtxWalk, Start: t0.Add(time.Minute), End: t0.Add(90 * time.Second)},
				{Context: rules.CtxStressed, Start: t0.Add(time.Minute), End: t0.Add(61 * time.Second)},
			},
		},
	}
	s := Summarize(rels)
	if s.Releases != 2 || s.RawSamples != 3 {
		t.Errorf("summary = %+v", s)
	}
	st := s.Channels[wavesegment.ChannelECG]
	if st.Samples != 3 || st.Min != 1 || st.Max != 5 || st.Mean != 3 {
		t.Errorf("ECG stats = %+v", st)
	}
	if s.Contexts[rules.CtxWalk] != 32*time.Second {
		t.Errorf("walk duration = %v", s.Contexts[rules.CtxWalk])
	}
	if !s.Earliest.Equal(t0) || !s.Latest.Equal(t0.Add(2*time.Minute)) {
		t.Errorf("extent = %v..%v", s.Earliest, s.Latest)
	}
	if s.Contributors["alice"] != 1 || s.Contributors["bob"] != 1 {
		t.Errorf("contributors = %v", s.Contributors)
	}
	top := s.TopContexts()
	if len(top) != 2 || top[0] != rules.CtxWalk || top[1] != rules.CtxStressed {
		t.Errorf("top contexts = %v", top)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Releases != 0 || s.RawSamples != 0 || len(s.Channels) != 0 {
		t.Errorf("empty summary = %+v", s)
	}
	if len(s.TopContexts()) != 0 {
		t.Error("no contexts expected")
	}
}

func TestSummarizeEndToEnd(t *testing.T) {
	// Summaries over actual enforcement output.
	e := engine(t, nil, &rules.Rule{Action: rules.Allow()})
	seg := fullSegment(t0)
	_ = seg.Annotate(rules.CtxWalk, t0, t0.Add(30*time.Second))
	rels, _, err := EnforceExplained(e, "bob", nil, seg, geo.GridGeocoder{})
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(rels)
	if s.RawSamples != 600 {
		t.Errorf("samples = %d", s.RawSamples)
	}
	if s.Contexts[rules.CtxWalk] != 30*time.Second {
		t.Errorf("walk = %v", s.Contexts[rules.CtxWalk])
	}
}
