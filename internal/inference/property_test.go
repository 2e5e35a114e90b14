package inference

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"sensorsafe/internal/rules"
	"sensorsafe/internal/sensors"
	"sensorsafe/internal/wavesegment"
)

// classifiers maps each Table 1(b) category to its classifier's output
// on one window's features.
var classifiers = map[rules.Category]func(f *Features) string{
	rules.CategoryActivity: func(f *Features) string { return f.TransportMode() },
	rules.CategoryStress: func(f *Features) string {
		v, ok := f.Stressed()
		return fmt.Sprint(v, ok)
	},
	rules.CategorySmoking: func(f *Features) string {
		v, ok := f.SmokingDetected()
		return fmt.Sprint(v, ok)
	},
	rules.CategoryConversation: func(f *Features) string {
		v, ok := f.InConversation()
		return fmt.Sprint(v, ok)
	},
}

// dayRecording zips a DayInTheLife recording's chest-band and phone
// packets (same instants, same length) into one segment carrying every
// channel, plus skin temperature and heart rate, which no classifier
// reads.
func dayRecording(t *testing.T) *wavesegment.Segment {
	t.Helper()
	rec, err := sensors.Generate("alice", sensors.DayInTheLife(t0, origin, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.ChestBand) != len(rec.Phone) {
		t.Fatalf("%d chest packets, %d phone packets", len(rec.ChestBand), len(rec.Phone))
	}
	day := &wavesegment.Segment{Contributor: "alice", Start: rec.ChestBand[0].Start,
		Interval: rec.ChestBand[0].Interval, Location: origin}
	day.Channels = append(append(slices.Clone(rec.ChestBand[0].Channels), rec.Phone[0].Channels...),
		wavesegment.ChannelSkinTemp, wavesegment.ChannelHeartRate)
	for i, chest := range rec.ChestBand {
		ph := rec.Phone[i]
		if !chest.Start.Equal(ph.Start) || len(chest.Values) != len(ph.Values) {
			t.Fatalf("packet %d: chest and phone packets are not aligned", i)
		}
		for j, row := range chest.Values {
			day.Values = append(day.Values, append(append(slices.Clone(row), ph.Values[j]...), 33.5, 70))
		}
	}
	return day
}

// TestClassifiersStayInsideTable1b: the dependency closure hides a
// category's raw inputs using rules.CategorySensors (the paper's Table
// 1(b)), so each classifier must read only those channels. Over
// DayInTheLife windows, randomising every channel outside the table
// never changes that category's classifier output.
func TestClassifiersStayInsideTable1b(t *testing.T) {
	day := dayRecording(t)
	rng := rand.New(rand.NewSource(1))
	noise := []func() float64{
		func() float64 { return rng.Float64()*6 - 3 },
		func() float64 { return rng.NormFloat64() * 100 },
		func() float64 { return 0 },
	}
	seen := make(map[rules.Category]map[string]bool)
	for from := day.StartTime(); from.Before(day.EndTime()); from = from.Add(DefaultWindow) {
		to := from.Add(DefaultWindow)
		base := ExtractFeatures(day, from, to)
		for cat, classify := range classifiers {
			want := classify(&base)
			if seen[cat] == nil {
				seen[cat] = make(map[string]bool)
			}
			seen[cat][want] = true
			listed := rules.CategorySensors(cat)
			for trial, draw := range noise {
				p := day.Slice(from, to)
				for c, name := range p.Channels {
					if slices.Contains(listed, name) {
						continue
					}
					for _, row := range p.Values {
						row[c] = draw()
					}
				}
				got := ExtractFeatures(p, from, to)
				if g := classify(&got); g != want {
					t.Fatalf("%s at %v: output %q with the channels outside %v randomised (trial %d), want %q",
						cat, from.Format("15:04:05"), g, listed, trial, want)
				}
			}
		}
	}
	// The property is only worth something if every classifier's output
	// varies over the day.
	for cat, outs := range seen {
		if len(outs) < 2 {
			t.Errorf("%s: one output %v across the whole day", cat, outs)
		}
	}
}
