package abstraction

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"sensorsafe/internal/geo"
	"sensorsafe/internal/rules"
	"sensorsafe/internal/timeutil"
	"sensorsafe/internal/wavesegment"
)

// Enforcement conservation properties over randomized segments and rule
// sets: whatever enforcement releases must be a faithful subset of what was
// stored — no invented values, no duplicated spans, no overlap.

func randomSegment(rng *rand.Rand) *wavesegment.Segment {
	channels := [][]string{
		{wavesegment.ChannelECG, wavesegment.ChannelRespiration},
		{wavesegment.ChannelAccelX, wavesegment.ChannelMicrophone},
		{wavesegment.ChannelECG, wavesegment.ChannelRespiration, wavesegment.ChannelAccelX,
			wavesegment.ChannelMicrophone, wavesegment.ChannelSkinTemp},
	}[rng.Intn(3)]
	seg := &wavesegment.Segment{
		Contributor: "alice",
		Start:       t0.Add(time.Duration(rng.Intn(240)) * time.Minute),
		Interval:    100 * time.Millisecond,
		Location:    geo.Point{Lat: 34 + rng.Float64(), Lon: -119 + rng.Float64()},
		Channels:    channels,
	}
	n := rng.Intn(400) + 50
	for i := 0; i < n; i++ {
		row := make([]float64, len(channels))
		for j := range row {
			row[j] = rng.NormFloat64() * 100
		}
		seg.Values = append(seg.Values, row)
	}
	// Random annotations.
	labels := rules.KnownContextLabels()
	for i := 0; i < rng.Intn(4); i++ {
		lo := rng.Intn(n)
		hi := lo + rng.Intn(n-lo) + 1
		_ = seg.Annotate(labels[rng.Intn(len(labels))], seg.SampleTime(lo), seg.SampleTime(hi-1).Add(seg.Interval))
	}
	return seg
}

// randomEngine builds a random-but-valid rule set (reusing the generator
// shapes from the rules package via JSON to avoid an internal test dep).
func randomEngine(rng *rand.Rand) (*rules.Engine, error) {
	pool := []string{
		`{"Action":"Allow"}`,
		`{"Consumer":["bob"],"Action":"Allow"}`,
		`{"Sensor":["ECG"],"Action":"Allow"}`,
		`{"Sensor":["Accelerometer","Microphone"],"Action":"Allow"}`,
		`{"Context":["Drive"],"Action":"Deny"}`,
		`{"Context":["Conversation"],"Action":{"Abstraction":{"Stress":"NotShared"}}}`,
		`{"Action":{"Abstraction":{"Smoking":"NotShared"}}}`,
		`{"Action":{"Abstraction":{"Activity":"Move/Not Move"}}}`,
		`{"Action":{"Abstraction":{"Location":"City"}}}`,
		`{"Action":{"Abstraction":{"Time":"Hour"}}}`,
		`{"RepeatTime":{"Day":["Mon","Tue","Wed","Thu","Fri"],"HourMin":["9:00am","6:00pm"]},"Action":"Deny"}`,
		`{"Sensor":["Respiration"],"Action":"Deny"}`,
	}
	n := rng.Intn(5) + 1
	doc := "["
	for i := 0; i < n; i++ {
		if i > 0 {
			doc += ","
		}
		doc += pool[rng.Intn(len(pool))]
	}
	doc += "]"
	rs, err := rules.UnmarshalRuleSet([]byte(doc))
	if err != nil {
		return nil, err
	}
	return rules.NewEngine(rs, nil)
}

func TestPropertyEnforceConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		seg := randomSegment(rng)
		e, err := randomEngine(rng)
		if err != nil {
			return false
		}
		rels, _, err := EnforceExplained(e, "bob", nil, seg, gc)
		if err != nil {
			return false
		}
		totalReleased := 0
		var prevEnd time.Time
		for _, rel := range rels {
			if rel.Segment == nil {
				continue
			}
			totalReleased += rel.Segment.NumSamples()
			// Spans must be disjoint and ordered (only checkable when time
			// is released at full precision).
			if rel.TimeGranularity == timeutil.GranMillisecond {
				if !prevEnd.IsZero() && rel.Segment.StartTime().Before(prevEnd) {
					return false
				}
				prevEnd = rel.Segment.EndTime()
			}
			// Channels must be a subset of the stored ones.
			for _, ch := range rel.Segment.Channels {
				if !seg.HasChannel(ch) {
					return false
				}
			}
			// At full time precision, every released value must equal the
			// stored value at the same instant and channel.
			if rel.TimeGranularity == timeutil.GranMillisecond {
				for i := 0; i < rel.Segment.NumSamples(); i += 17 {
					at := rel.Segment.SampleTime(i)
					orig := seg.Slice(at, at.Add(time.Nanosecond))
					if orig == nil {
						return false
					}
					for c, ch := range rel.Segment.Channels {
						oc := orig.ChannelIndex(ch)
						if oc < 0 || orig.Values[0][oc] != rel.Segment.Values[i][c] {
							return false
						}
					}
				}
			}
		}
		// Never release more samples than stored.
		return totalReleased <= seg.NumSamples()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestPropertyEnforceNeverLeaksHiddenContexts(t *testing.T) {
	// Whatever the rule set, a released context label's category must be
	// granted at a level that permits that label.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		seg := randomSegment(rng)
		e, err := randomEngine(rng)
		if err != nil {
			return false
		}
		rels, _, err := EnforceExplained(e, "bob", nil, seg, gc)
		if err != nil {
			return false
		}
		for _, rel := range rels {
			for _, c := range rel.Contexts {
				cat, ok := rules.LabelCategory(c.Context)
				if !ok {
					return false // unknown labels must never flow
				}
				if rel.TimeGranularity != timeutil.GranMillisecond {
					// Coarsened time cannot be inverted to the original
					// span; the full-precision branch below covers the
					// level consistency property.
					continue
				}
				// Re-derive the decision at the span start and confirm the
				// label is consistent with the granted level.
				d := e.Decide(&rules.Request{
					Consumer: "bob", At: rel.Start,
					Location:       seg.Location,
					ActiveContexts: seg.ContextsAt(rel.Start),
				})
				lvl := d.ContextLevel(cat)
				if lvl == rules.LevelNotShared {
					return false
				}
				if want, ok := rules.AbstractLabel(c.Context, lvl); !ok || want != c.Context {
					// The released label must be a fixed point of its own
					// abstraction level.
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
