package ruleindex

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"sensorsafe/internal/geo"
	"sensorsafe/internal/rules"
	"sensorsafe/internal/timeutil"
)

// base is a Monday midnight UTC, so weekday arithmetic in the generators
// is easy to reason about.
var base = time.Date(2026, 3, 2, 0, 0, 0, 0, time.UTC)

// denver is a non-UTC zone: recurring windows and the weekly wheel depend
// on the instant's own wall clock, so requests must exercise both.
var denver = time.FixedZone("denver", -7*3600)

// Pools deliberately mix case (and the Unicode long s, which EqualFold
// equates with 's' but strings.ToLower does not) so any canonicalization
// mismatch between compile time and match time shows up.
var (
	consumerPool = []string{"alice", "Bob", "CAROL", "dave", "ſtefan", "Stefan"}
	groupPool    = []string{"study-a", "Study-B", "cohort1", "COHORT1"}
	contextPool  = []string{"Walk", "walking", "STILL", "Run", "Stressed", "NotStressed", "Smoking", "Conversation", "NoConversation"}
	sensorPool   = []string{"ECG", "ecg", "Respiration", "Microphone", "AccelX", "AccelY", "GPS", "Latitude", "SkinTemperature"}
	labelPool    = []string{"home", "Work", "UCLA", "gym", "nowhere-defined"}
)

func testGazetteer(t testing.TB) *geo.Gazetteer {
	t.Helper()
	gaz := geo.NewGazetteer()
	define := func(label string, minLat, minLon, maxLat, maxLon float64) {
		r, err := geo.NewRect(geo.Point{Lat: minLat, Lon: minLon}, geo.Point{Lat: maxLat, Lon: maxLon})
		if err != nil {
			t.Fatalf("rect: %v", err)
		}
		if err := gaz.Define(label, geo.Region{Rect: r}); err != nil {
			t.Fatalf("define %s: %v", label, err)
		}
	}
	define("home", 34.00, -118.50, 34.02, -118.48)
	define("work", 34.05, -118.45, 34.07, -118.43)
	define("ucla", 34.06, -118.45, 34.08, -118.43) // overlaps work
	define("gym", 33.98, -118.52, 33.99, -118.51)
	return gaz
}

func pick(rng *rand.Rand, pool []string) string { return pool[rng.Intn(len(pool))] }

func pickSome(rng *rand.Rand, pool []string, max int) []string {
	n := rng.Intn(max + 1)
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, pick(rng, pool))
	}
	return out
}

func genRegion(rng *rand.Rand) geo.Region {
	switch rng.Intn(4) {
	case 0: // continent-scale rect: lands on the always-candidate list
		return geo.Region{Rect: geo.Rect{MinLat: -60, MinLon: -170, MaxLat: 60, MaxLon: 170}}
	case 1: // triangle near the test area
		la, lo := 33.9+rng.Float64()*0.3, -118.6+rng.Float64()*0.3
		return geo.Region{Polygon: geo.Polygon{
			{Lat: la, Lon: lo}, {Lat: la + 0.04, Lon: lo + 0.01}, {Lat: la + 0.01, Lon: lo + 0.05},
		}}
	default: // small rect near the test area
		la, lo := 33.9+rng.Float64()*0.3, -118.6+rng.Float64()*0.3
		return geo.Region{Rect: geo.Rect{MinLat: la, MinLon: lo, MaxLat: la + 0.03, MaxLon: lo + 0.03}}
	}
}

func genRepeated(t testing.TB, rng *rand.Rand) timeutil.Repeated {
	t.Helper()
	var days []time.Weekday
	for d := time.Sunday; d <= time.Saturday; d++ {
		if rng.Intn(3) == 0 {
			days = append(days, d)
		}
	}
	var from, to timeutil.ClockTime
	switch rng.Intn(4) {
	case 0: // whole day
	case 1: // wraps midnight
		from = timeutil.ClockTime(18*60 + rng.Intn(300))
		to = timeutil.ClockTime(rng.Intn(9 * 60))
	default:
		from = timeutil.ClockTime(rng.Intn(20 * 60))
		to = from + timeutil.ClockTime(1+rng.Intn(6*60))
		if to > timeutil.MinutesPerDay {
			to = timeutil.MinutesPerDay
		}
	}
	rep, err := timeutil.NewRepeated(days, from, to)
	if err != nil {
		t.Fatalf("repeated: %v", err)
	}
	return rep
}

func genRule(t testing.TB, rng *rand.Rand, id int) *rules.Rule {
	t.Helper()
	r := &rules.Rule{}
	if rng.Intn(10) > 0 { // some rules stay anonymous
		r.ID = fmt.Sprintf("r%03d", id)
	}
	r.Consumers = pickSome(rng, consumerPool, 2)
	r.Groups = pickSome(rng, groupPool, 2)
	if rng.Intn(2) == 0 {
		r.LocationLabels = pickSome(rng, labelPool, 2)
	}
	for i := rng.Intn(3); i > 0; i-- {
		r.Regions = append(r.Regions, genRegion(rng))
	}
	for i := rng.Intn(3); i > 0; i-- {
		start := base.Add(time.Duration(rng.Intn(10*24)) * time.Hour)
		rg := timeutil.Range{Start: start, End: start.Add(time.Duration(1+rng.Intn(72)) * time.Hour)}
		switch rng.Intn(5) {
		case 0:
			rg.Start = time.Time{}
		case 1:
			rg.End = time.Time{}
		}
		r.TimeRanges = append(r.TimeRanges, rg)
	}
	for i := rng.Intn(3); i > 0; i-- {
		r.RepeatTimes = append(r.RepeatTimes, genRepeated(t, rng))
	}
	r.Sensors = pickSome(rng, sensorPool, 3)
	r.Contexts = pickSome(rng, contextPool, 2)
	switch rng.Intn(4) {
	case 0:
		r.Action = rules.Deny()
	case 1:
		spec := rules.AbstractionSpec{}
		if rng.Intn(2) == 0 {
			l := []geo.LocationGranularity{geo.LocStreetAddress, geo.LocCity, geo.LocState, geo.LocNotShared}[rng.Intn(4)]
			spec.Location = &l
		}
		if rng.Intn(2) == 0 {
			g := []timeutil.Granularity{timeutil.GranHour, timeutil.GranDay, timeutil.GranNotShared}[rng.Intn(3)]
			spec.Time = &g
		}
		if rng.Intn(2) == 0 || spec.Empty() {
			cat := rules.Categories()[rng.Intn(4)]
			levels := []rules.Level{rules.LevelRaw, rules.LevelBinary, rules.LevelNotShared}
			if cat == rules.CategoryActivity {
				levels = append(levels, rules.LevelModes)
			}
			spec.Contexts = map[rules.Category]rules.Level{cat: levels[rng.Intn(len(levels))]}
		}
		r.Action = rules.Abstract(spec)
	default:
		r.Action = rules.Allow()
	}
	return r
}

func genRequest(rng *rand.Rand) *rules.Request {
	at := base.Add(time.Duration(rng.Int63n(int64(12*24*time.Hour))) - 24*time.Hour)
	if rng.Intn(3) == 0 {
		at = at.In(denver)
	}
	var p geo.Point
	if rng.Intn(5) == 0 {
		p = geo.Point{Lat: rng.Float64()*160 - 80, Lon: rng.Float64()*340 - 170}
	} else {
		p = geo.Point{Lat: 33.9 + rng.Float64()*0.3, Lon: -118.6 + rng.Float64()*0.3}
	}
	consumer := pick(rng, append([]string{"nobody", "ALICE"}, consumerPool...))
	return &rules.Request{
		Consumer:       consumer,
		ConsumerGroups: pickSome(rng, groupPool, 2),
		At:             at,
		Location:       p,
		ActiveContexts: pickSome(rng, contextPool, 3),
	}
}

// TestDifferentialDecide is the index ≡ engine harness: generated rule
// sets and requests must produce byte-identical decisions — including the
// Matched rule-ID lists — through the linear engine, the cold index, and
// the warm (cache-hit) index.
func TestDifferentialDecide(t *testing.T) {
	gaz := testGazetteer(t)
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(41)
		rs := make([]*rules.Rule, n)
		for i := range rs {
			rs[i] = genRule(t, rng, i)
		}
		eng, err := rules.NewEngine(rs, gaz)
		if err != nil {
			t.Fatalf("seed %d: engine: %v", seed, err)
		}
		ix := fromEngine(eng, uint64(seed))
		for q := 0; q < 80; q++ {
			req := genRequest(rng)
			want := eng.Decide(req)
			cold := ix.Decide(req)
			// Distinct requests may share a canonical signature, so the
			// first call for THIS request can legally hit the cache; either
			// way it must match the engine byte for byte.
			cold.Cached = false
			if !reflect.DeepEqual(want, cold) {
				t.Fatalf("seed %d req %d: index != engine\nreq: %+v\nengine: %+v\nindex:  %+v", seed, q, req, want, cold)
			}
			warm := ix.Decide(req)
			if !warm.Cached {
				t.Fatalf("seed %d req %d: repeat decision missed the cache", seed, q)
			}
			warm.Cached = false
			if !reflect.DeepEqual(want, warm) {
				t.Fatalf("seed %d req %d: cached decision differs\nengine: %+v\ncached: %+v", seed, q, want, warm)
			}
		}
	}
}

// TestDifferentialNoCache re-runs a differential slice with memoization
// disabled, pinning the pure index path.
func TestDifferentialNoCache(t *testing.T) {
	gaz := testGazetteer(t)
	rng := rand.New(rand.NewSource(99))
	rs := make([]*rules.Rule, 25)
	for i := range rs {
		rs[i] = genRule(t, rng, i)
	}
	eng, err := rules.NewEngine(rs, gaz)
	if err != nil {
		t.Fatal(err)
	}
	ix := fromEngine(eng, 0)
	ix.cache = nil
	for q := 0; q < 200; q++ {
		req := genRequest(rng)
		want, got := eng.Decide(req), ix.Decide(req)
		if got.Cached {
			t.Fatal("cache disabled but decision claims cached")
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("req %d: index != engine\nreq: %+v\nengine: %+v\nindex:  %+v", q, req, want, got)
		}
	}
	if st := ix.Stats(); st.CacheCapacity != 0 || st.CacheEntries != 0 {
		t.Fatalf("disabled cache reports capacity: %+v", st)
	}
}

// TestRecompileDropsStaleDecisions proves the invalidation contract: a
// revocation takes effect on the very next evaluation because a mutation
// compiles a fresh index (new version, empty cache) — the old memo can
// never answer for the new rule set.
func TestRecompileDropsStaleDecisions(t *testing.T) {
	req := &rules.Request{Consumer: "bob", At: base.Add(10 * time.Hour)}

	v1, err := Compile([]*rules.Rule{{ID: "allow-all", Action: rules.Allow()}}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d := v1.Decide(req); !d.ChannelShared("ECG") {
		t.Fatal("v1 should allow")
	}
	if d := v1.Decide(req); !d.Cached || !d.ChannelShared("ECG") {
		t.Fatal("v1 repeat should be a cache hit and still allow")
	}

	// The contributor revokes: the mutation path compiles a new index.
	v2, err := Compile([]*rules.Rule{{ID: "deny-all", Action: rules.Deny()}}, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d := v2.Decide(req); d.SharesAnything() || d.Cached {
		t.Fatalf("revocation not immediate: %+v", d)
	}
	if v2.Version() != 2 {
		t.Fatalf("version = %d, want 2", v2.Version())
	}
}

// TestCacheBound fills the cache past capacity and checks the bound holds
// and evictions are counted.
func TestCacheBound(t *testing.T) {
	ix, err := Compile([]*rules.Rule{{ID: "a", Action: rules.Allow()}}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ix.cache = newDecisionCache(32, 4)
	for i := 0; i < 500; i++ {
		ix.Decide(&rules.Request{Consumer: fmt.Sprintf("c%d", i), At: base})
	}
	st := ix.Stats()
	if st.CacheEntries > st.CacheCapacity {
		t.Fatalf("cache over bound: %d > %d", st.CacheEntries, st.CacheCapacity)
	}
	if st.CacheEvictions == 0 {
		t.Fatal("expected evictions after overfilling")
	}
	if st.CacheMisses < 500 {
		t.Fatalf("misses = %d, want >= 500", st.CacheMisses)
	}
}

// TestWheelHours pins the hour-of-week coverage of the tricky recurring
// window shapes.
func TestWheelHours(t *testing.T) {
	mk := func(days []time.Weekday, from, to timeutil.ClockTime) timeutil.Repeated {
		rep, err := timeutil.NewRepeated(days, from, to)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	// Monday 9:30–10:30 → Monday hours 9 and 10.
	hs := wheelHours(mk([]time.Weekday{time.Monday}, 9*60+30, 10*60+30))
	want := []int{1*24 + 9, 1*24 + 10}
	if !reflect.DeepEqual(hs, want) {
		t.Fatalf("same-day: got %v want %v", hs, want)
	}
	// Saturday 23:00–01:00 wraps into Sunday.
	hs = wheelHours(mk([]time.Weekday{time.Saturday}, 23*60, 60))
	want = []int{6*24 + 23, 0}
	if !reflect.DeepEqual(hs, want) {
		t.Fatalf("wrap: got %v want %v", hs, want)
	}
	// Whole-day Tuesday covers all 24 buckets.
	hs = wheelHours(mk([]time.Weekday{time.Tuesday}, 0, 0))
	if len(hs) != 24 || hs[0] != 2*24 || hs[23] != 2*24+23 {
		t.Fatalf("whole-day: got %v", hs)
	}
	if got := wheelHours(timeutil.Repeated{}); got != nil {
		t.Fatalf("zero window should cover nothing, got %v", got)
	}
}

// TestIntervalTreeStab cross-checks the tree against a linear scan over
// generated interval sets, including unbounded sides.
func TestIntervalTreeStab(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(30)
		ivs := make([]interval, n)
		for i := range ivs {
			start := base.Add(time.Duration(rng.Intn(200)) * time.Hour)
			iv := interval{start: start, end: start.Add(time.Duration(1+rng.Intn(50)) * time.Hour), rule: int32(i)}
			switch rng.Intn(6) {
			case 0:
				iv.start = time.Time{}
			case 1:
				iv.end = time.Time{}
			}
			ivs[i] = iv
		}
		tree := newIntervalTree(append([]interval(nil), ivs...))
		for q := 0; q < 40; q++ {
			at := base.Add(time.Duration(rng.Intn(260)-30) * time.Hour)
			got := newBitset(n)
			tree.stab(at, got)
			want := newBitset(n)
			for _, iv := range ivs {
				if iv.containsAt(at) {
					want.set(iv.rule)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: stab(%v) mismatch", trial, at)
			}
		}
	}
}

// TestFoldEqualFold checks Fold's defining property on the tricky pairs.
func TestFoldEqualFold(t *testing.T) {
	pairs := [][2]string{
		{"Bob", "bob"}, {"ſtefan", "Stefan"}, {"STRASSE", "strasse"},
		{"ΣΙΣΥΦΟΣ", "σίσυφος"}, // final sigma folds with capital sigma, the accent does not
	}
	for _, p := range pairs {
		a, b := rules.Fold(p[0]), rules.Fold(p[1])
		if want := strings.EqualFold(p[0], p[1]); (a == b) != want {
			t.Errorf("Fold(%q)=%q Fold(%q)=%q, EqualFold=%v", p[0], a, p[1], b, want)
		}
	}
}
