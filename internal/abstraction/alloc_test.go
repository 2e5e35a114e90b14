package abstraction

import (
	"testing"
	"time"

	"sensorsafe/internal/rules"
	"sensorsafe/internal/timeutil"
	"sensorsafe/internal/wavesegment"
)

// rowsSegment is n samples of four channels at 10 Hz, or at irregular
// per-sample instants when timestamped, under one annotation spanning it.
func rowsSegment(n int, timestamped bool) *wavesegment.Segment {
	s := &wavesegment.Segment{
		Contributor: "alice",
		Start:       t0,
		Location:    uclaPoint,
		Channels: []string{
			wavesegment.ChannelECG, wavesegment.ChannelRespiration,
			wavesegment.ChannelAccelX, wavesegment.ChannelSkinTemp,
		},
	}
	if !timestamped {
		s.Interval = 100 * time.Millisecond
	}
	for i := 0; i < n; i++ {
		s.Values = append(s.Values, []float64{float64(i), 1, 2, 3})
		if timestamped {
			s.Timestamps = append(s.Timestamps, t0.Add(time.Duration(i*i%7+10*i)*10*time.Millisecond))
		}
	}
	_ = s.Annotate(rules.CtxWalk, s.StartTime(), s.EndTime())
	return s
}

// TestEnforceAllocsIndependentOfRows guards the shared read path:
// enforcement shares a segment's sample rows, or copies the kept columns
// into one backing array when a channel is withheld, so the allocations
// of one EnforceExplained do not grow with the segment's length.
func TestEnforceAllocsIndependentOfRows(t *testing.T) {
	shapes := []struct {
		name, rules string
		timestamped bool
		// channels and gran are what the release must carry, so each
		// shape is known to take its own path through Apply.
		channels int
		gran     timeutil.Granularity
	}{
		{"allow", `[{"Action":"Allow"}]`, false, 4, timeutil.GranMillisecond},
		{"time hour", `[{"Action":"Allow"},{"Action":{"Abstraction":{"Time":"Hour"}}}]`, false, 4, timeutil.GranHour},
		{"withheld channel", `[{"Action":"Allow"},{"Action":{"Abstraction":{"Stress":"NotShared"}}}]`, false, 2, timeutil.GranMillisecond},
		{"time not shared, timestamped", `[{"Action":"Allow"},{"Action":{"Abstraction":{"Time":"NotShared"}}}]`, true, 4, timeutil.GranNotShared},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			rs, err := rules.UnmarshalRuleSet([]byte(sh.rules))
			if err != nil {
				t.Fatal(err)
			}
			e := engine(t, nil, rs...)
			allocs := func(n int) float64 {
				seg := rowsSegment(n, sh.timestamped)
				return testing.AllocsPerRun(20, func() {
					rels, _, err := EnforceExplained(e, "Bob", nil, seg, gc)
					if err != nil || len(rels) != 1 || rels[0].Segment == nil ||
						len(rels[0].Segment.Channels) != sh.channels || rels[0].TimeGranularity != sh.gran {
						t.Fatalf("EnforceExplained = %+v, %v", rels, err)
					}
				})
			}
			if small, large := allocs(64), allocs(4096); small != large {
				t.Errorf("allocations per EnforceExplained: %v at 64 rows, %v at 4096 rows", small, large)
			}
		})
	}
}
