package abstraction_test

import (
	"fmt"
	"testing"
	"time"

	"sensorsafe/internal/abstraction"
	"sensorsafe/internal/geo"
	"sensorsafe/internal/rules"
	"sensorsafe/internal/timeutil"
	"sensorsafe/internal/wavesegment"
)

var (
	t1At     = time.Date(2011, 2, 16, 10, 0, 0, 0, time.UTC) // Wednesday
	t1Campus = geo.Point{Lat: 34.0689, Lon: -118.4452}
)

// t1Segment is one minute of all-channel data annotated with every context
// category.
func t1Segment() *wavesegment.Segment {
	seg := &wavesegment.Segment{
		Contributor: "alice", Start: t1At, Interval: 100 * time.Millisecond,
		Location: t1Campus,
		Channels: []string{
			wavesegment.ChannelECG, wavesegment.ChannelRespiration,
			wavesegment.ChannelAccelX, wavesegment.ChannelAccelY, wavesegment.ChannelAccelZ,
			wavesegment.ChannelMicrophone, wavesegment.ChannelSkinTemp,
		},
	}
	for i := 0; i < 600; i++ {
		seg.Values = append(seg.Values, []float64{1, 2, 0.1, 0.1, 1, 0.2, 36.5})
	}
	end := seg.EndTime()
	for _, ctx := range []string{rules.CtxWalk, rules.CtxStressed, rules.CtxSmoking, rules.CtxConversation} {
		if err := seg.Annotate(ctx, t1At, end); err != nil {
			panic(err)
		}
	}
	return seg
}

// t1Engine parses a rule set against a gazetteer that labels the probe
// point "UCLA".
func t1Engine(ruleJSON string) (*rules.Engine, error) {
	rs, err := rules.UnmarshalRuleSet([]byte(ruleJSON))
	if err != nil {
		return nil, err
	}
	g := geo.NewGazetteer()
	rect, err := geo.NewRect(geo.Point{Lat: 34.05, Lon: -118.46}, geo.Point{Lat: 34.08, Lon: -118.43})
	if err != nil {
		return nil, err
	}
	if err := g.Define("UCLA", geo.Region{Rect: rect}); err != nil {
		return nil, err
	}
	return rules.NewEngine(rs, g)
}

// t1Enforce enforces a rule set over the standard segment for the given
// consumer/groups.
func t1Enforce(ruleJSON, consumer string, groups []string) ([]*abstraction.Release, error) {
	e, err := t1Engine(ruleJSON)
	if err != nil {
		return nil, err
	}
	rels, _, err := abstraction.EnforceExplained(e, consumer, groups, t1Segment(), geo.GridGeocoder{})
	return rels, err
}

// expectShared asserts the rule set releases (or withholds) data for the
// consumer.
func expectShared(ruleJSON, consumer string, groups []string, want bool) error {
	rels, err := t1Enforce(ruleJSON, consumer, groups)
	if err != nil {
		return err
	}
	if got := len(rels) > 0; got != want {
		return fmt.Errorf("shared=%v, want %v", got, want)
	}
	return nil
}

type table1Case struct {
	group  string
	option string
	check  func() error
}

// TestTable1FeatureMatrix reproduces Table 1 of the paper: every
// privacy-rule condition option (consumer/group/study name, location
// label/region, time range/repeated time, sensor channel, context), every
// action (allow, deny, abstraction), and every abstraction ladder option of
// Table 1(b) runs end-to-end through the rule engine and the enforcement
// transform, and the released data must show exactly the expected effect.
func TestTable1FeatureMatrix(t *testing.T) {
	for _, c := range table1Cases() {
		t.Run(c.group+"/"+c.option, func(t *testing.T) {
			if err := c.check(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestTable1MatrixCoverage guards the matrix itself: every Table 1 option
// has its own case, so the matrix cannot shrink unnoticed.
func TestTable1MatrixCoverage(t *testing.T) {
	if n := len(table1Cases()); n < 45 {
		t.Errorf("Table 1 matrix has %d cases; expected full coverage (>=45)", n)
	}
}

func table1Cases() []table1Case {
	cases := []table1Case{
		// --- Conditions: data consumer (user / group / study name). ---
		{"Condition: Consumer", "User Name", func() error {
			rule := `[{"Consumer":["Bob"],"Action":"Allow"}]`
			if err := expectShared(rule, "Bob", nil, true); err != nil {
				return err
			}
			return expectShared(rule, "Eve", nil, false)
		}},
		{"Condition: Consumer", "Group Name", func() error {
			rule := `[{"Group":["TeamA"],"Action":"Allow"}]`
			if err := expectShared(rule, "Bob", []string{"TeamA"}, true); err != nil {
				return err
			}
			return expectShared(rule, "Bob", []string{"TeamB"}, false)
		}},
		{"Condition: Consumer", "Study Name", func() error {
			rule := `[{"Study":["StressStudy"],"Action":"Allow"}]`
			if err := expectShared(rule, "Bob", []string{"StressStudy"}, true); err != nil {
				return err
			}
			return expectShared(rule, "Bob", nil, false)
		}},

		// --- Conditions: location (label / region coordinates). ---
		{"Condition: Location", "Pre-defined Label", func() error {
			rule := `[{"LocationLabel":["UCLA"],"Action":"Allow"}]`
			return expectShared(rule, "Bob", nil, true) // segment is at UCLA
		}},
		{"Condition: Location", "Region Coordinates", func() error {
			inside := `[{"Region":{"rect":{"minLat":34,"minLon":-119,"maxLat":35,"maxLon":-118}},"Action":"Allow"}]`
			if err := expectShared(inside, "Bob", nil, true); err != nil {
				return err
			}
			outside := `[{"Region":{"rect":{"minLat":48,"minLon":2,"maxLat":49,"maxLon":3}},"Action":"Allow"}]`
			return expectShared(outside, "Bob", nil, false)
		}},

		// --- Conditions: time (range / repeated). ---
		{"Condition: Time", "Time Range", func() error {
			during := `[{"TimeRange":{"Start":"2011-02-01T00:00:00Z","End":"2011-03-01T00:00:00Z"},"Action":"Allow"}]`
			if err := expectShared(during, "Bob", nil, true); err != nil {
				return err
			}
			before := `[{"TimeRange":{"End":"2011-01-01T00:00:00Z"},"Action":"Allow"}]`
			return expectShared(before, "Bob", nil, false)
		}},
		{"Condition: Time", "Repeated Time", func() error {
			weekday := `[{"RepeatTime":{"Day":["Mon","Tue","Wed","Thu","Fri"],"HourMin":["9:00am","6:00pm"]},"Action":"Allow"}]`
			if err := expectShared(weekday, "Bob", nil, true); err != nil { // Wed 10am
				return err
			}
			weekend := `[{"RepeatTime":{"Day":["Sat","Sun"]},"Action":"Allow"}]`
			return expectShared(weekend, "Bob", nil, false)
		}},

		// --- Condition: sensor channel. ---
		{"Condition: Sensor", "Sensor Channel Name", func() error {
			rels, err := t1Enforce(`[{"Sensor":["ECG"],"Action":"Allow"}]`, "Bob", nil)
			if err != nil {
				return err
			}
			if len(rels) != 1 || rels[0].Segment == nil {
				return fmt.Errorf("expected one release with data")
			}
			if got := rels[0].Segment.Channels; len(got) != 1 || got[0] != "ECG" {
				return fmt.Errorf("channels = %v, want [ECG]", got)
			}
			return nil
		}},

		// --- Actions. ---
		{"Action", "Allow", func() error {
			return expectShared(`[{"Action":"Allow"}]`, "Bob", nil, true)
		}},
		{"Action", "Deny", func() error {
			return expectShared(`[{"Action":"Allow"},{"Action":"Deny"}]`, "Bob", nil, false)
		}},
		{"Action", "Abstraction", func() error {
			rels, err := t1Enforce(`[{"Action":"Allow"},{"Action":{"Abstraction":{"Stress":"NotShared"}}}]`, "Bob", nil)
			if err != nil {
				return err
			}
			for _, rel := range rels {
				for _, c := range rel.Contexts {
					if c.Context == rules.CtxStressed {
						return fmt.Errorf("stress leaked")
					}
				}
			}
			return nil
		}},
	}

	// --- Context conditions, one per available context label. ---
	for _, ctx := range []string{
		rules.CtxMoving, rules.CtxNotMoving, rules.CtxStill, rules.CtxWalk, rules.CtxRun,
		rules.CtxBike, rules.CtxDrive, rules.CtxStressed, rules.CtxConversation, rules.CtxSmoking,
	} {
		cases = append(cases, table1Case{"Condition: Context", ctx, func() error {
			rs, err := rules.UnmarshalRuleSet([]byte(fmt.Sprintf(`[{"Context":[%q],"Action":"Allow"}]`, ctx)))
			if err != nil {
				return err
			}
			e, err := rules.NewEngine(rs, nil)
			if err != nil {
				return err
			}
			with := e.Decide(&rules.Request{Consumer: "Bob", At: t1At, Location: t1Campus, ActiveContexts: []string{ctx}})
			without := e.Decide(&rules.Request{Consumer: "Bob", At: t1At, Location: t1Campus})
			if !with.SharesAnything() {
				return fmt.Errorf("context %s active but nothing shared", ctx)
			}
			if without.SharesAnything() {
				return fmt.Errorf("context %s inactive but data shared", ctx)
			}
			return nil
		}})
	}

	// --- Table 1(b): location abstraction ladder. ---
	for _, opt := range []string{"Coordinates", "StreetAddress", "Zipcode", "City", "State", "Country", "NotShared"} {
		cases = append(cases, table1Case{"Abstraction: Location", opt, func() error {
			rels, err := t1Enforce(fmt.Sprintf(`[{"Action":"Allow"},{"Action":{"Abstraction":{"Location":%q}}}]`, opt), "Bob", nil)
			if err != nil {
				return err
			}
			if len(rels) == 0 {
				return fmt.Errorf("nothing released")
			}
			want, err := geo.ParseLocationGranularity(opt)
			if err != nil {
				return err
			}
			loc := rels[0].Location
			if loc.Granularity != want {
				return fmt.Errorf("granularity %v, want %v", loc.Granularity, want)
			}
			switch {
			case want == geo.LocCoordinates && loc.Point == nil:
				return fmt.Errorf("coordinates missing")
			case want == geo.LocNotShared && (loc.Point != nil || loc.Text != ""):
				return fmt.Errorf("location leaked")
			case want > geo.LocCoordinates && want < geo.LocNotShared && loc.Text == "":
				return fmt.Errorf("abstracted text missing")
			}
			return nil
		}})
	}

	// --- Table 1(b): time abstraction ladder. ---
	for _, opt := range []string{"Milliseconds", "Hour", "Day", "Month", "Year", "NotShared"} {
		cases = append(cases, table1Case{"Abstraction: Time", opt, func() error {
			rels, err := t1Enforce(fmt.Sprintf(`[{"Action":"Allow"},{"Action":{"Abstraction":{"Time":%q}}}]`, opt), "Bob", nil)
			if err != nil {
				return err
			}
			if len(rels) == 0 {
				return fmt.Errorf("nothing released")
			}
			want, err := timeutil.ParseGranularity(opt)
			if err != nil {
				return err
			}
			rel := rels[0]
			if rel.TimeGranularity != want {
				return fmt.Errorf("granularity %v, want %v", rel.TimeGranularity, want)
			}
			if want == timeutil.GranNotShared {
				if !rel.Start.IsZero() {
					return fmt.Errorf("time leaked")
				}
				return nil
			}
			if !rel.Start.Equal(want.Abstract(t1At)) {
				return fmt.Errorf("start %v not truncated to %v", rel.Start, want)
			}
			return nil
		}})
	}

	// --- Table 1(b): context ladders (activity, stress, smoking,
	// conversation), using the paper's descriptive option names. ---
	ladders := []struct {
		cat     rules.Category
		options []string
		label   string // annotation that must transform
	}{
		{rules.CategoryActivity, []string{"Accelerometer Data", "Still/Walk/Run/Bike/Drive", "Move/Not Move", "Not Share"}, rules.CtxWalk},
		{rules.CategoryStress, []string{"ECG/Respiration Data", "Stressed/Not Stressed", "Not Share"}, rules.CtxStressed},
		{rules.CategorySmoking, []string{"Respiration Data", "Smoking/Not Smoking", "Not Share"}, rules.CtxSmoking},
		{rules.CategoryConversation, []string{"Microphone/Respiration Data", "Conversation/Not Conversation", "Not Share"}, rules.CtxConversation},
	}
	for _, l := range ladders {
		for _, opt := range l.options {
			cases = append(cases, table1Case{fmt.Sprintf("Abstraction: %s", l.cat), opt, func() error {
				rule := fmt.Sprintf(`[{"Action":"Allow"},{"Action":{"Abstraction":{%q:%q}}}]`, string(l.cat), opt)
				rels, err := t1Enforce(rule, "Bob", nil)
				if err != nil {
					return err
				}
				if len(rels) == 0 {
					return fmt.Errorf("nothing released")
				}
				want, err := rules.ParseLevel(l.cat, opt)
				if err != nil {
					return err
				}
				rel := rels[0]
				wantLabel, labelShared := rules.AbstractLabel(l.label, want)
				var got string
				for _, c := range rel.Contexts {
					if cat, _ := rules.LabelCategory(c.Context); cat == l.cat {
						got = c.Context
					}
				}
				if labelShared && got != wantLabel {
					return fmt.Errorf("label %q, want %q", got, wantLabel)
				}
				if !labelShared && got != "" {
					return fmt.Errorf("label %q leaked at NotShared", got)
				}
				// Raw channels of the category must flow only at LevelRaw
				// — and then only if no *other* category inferable from
				// the same channel is below raw (the dependency closure).
				for _, ch := range rules.CategorySensors(l.cat) {
					if rel.Segment == nil || want == rules.LevelRaw || !rel.Segment.HasChannel(ch) {
						continue
					}
					for _, other := range rules.SensorCategories(ch) {
						if other != l.cat {
							return fmt.Errorf("raw %s leaked (fed by abstracted %s)", ch, l.cat)
						}
					}
					return fmt.Errorf("raw %s leaked below raw level", ch)
				}
				return nil
			}})
		}
	}
	return cases
}
