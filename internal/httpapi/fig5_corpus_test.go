package httpapi

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"sensorsafe/internal/abstraction"
	"sensorsafe/internal/geo"
	"sensorsafe/internal/timeutil"
	"sensorsafe/internal/wavesegment"
)

// The Fig. 5 byte-identity corpus. testdata/fig5/segments.jsonl holds one
// segment JSON document per line and testdata/fig5/query.jsonl one
// /api/query response body per line, both written by encoding/json over
// the wire structs' tags, and never regenerated since. fig5Corpus rebuilds
// the values they encode; it must not change, or the goldens no longer
// describe it.

// fig5Floats are the float spellings encoding/json treats specially: the
// 'f'/'e' switch at 1e-6 and 1e21, the e-07 → e-7 cleanup, negative zero
// and the smallest subnormal.
var fig5Floats = []float64{
	1e-7, 1e21, math.Copysign(0, -1), 5e-324, 0, 1, -1, 0.1, 1.0 / 3, 1e-6, 9.99e-7,
	1e20, 9.999999999999999e20, -1e21, 1e-300, -2.5e-8, math.MaxFloat64,
	-math.MaxFloat64, 123456789.125, 1e15, 36.6, -118.4452, 0.000123,
}

func fig5Corpus() (segs []*wavesegment.Segment, bodies []queryResp) {
	rng := rand.New(rand.NewSource(20110216))
	t0 := time.Date(2011, 2, 16, 8, 30, 0, 0, time.UTC)
	value := func() float64 {
		switch rng.Intn(6) {
		case 0:
			return fig5Floats[rng.Intn(len(fig5Floats))]
		case 1:
			return math.Round(rng.NormFloat64()*1000) / 1000
		case 2:
			return float64(rng.Intn(4096) - 2048)
		case 3:
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
		default:
			return rng.NormFloat64()
		}
	}
	rows := func(n, ch int) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			out[i] = make([]float64, ch)
			for j := range out[i] {
				out[i][j] = value()
			}
		}
		return out
	}
	channelSets := [][]string{
		{wavesegment.ChannelECG},
		{wavesegment.ChannelAccelX, wavesegment.ChannelAccelY, wavesegment.ChannelAccelZ},
		{wavesegment.ChannelRespiration, wavesegment.ChannelSkinTemp},
		{"x<y", "a&b", "Ünïcode", "line\u2028sep", `q"uote\`},
	}
	contributors := []string{"alice", "", "Zoë 李", `o"brien\`, "<b>&amp;</b>"}
	zones := []*time.Location{time.UTC, time.FixedZone("PST", -8*3600), time.FixedZone("IST", 5*3600+1800)}
	labels := []string{"Drive", "Stressed", "Walk", "Home <&>"}

	segment := func(i int) *wavesegment.Segment {
		ch := channelSets[i%len(channelSets)]
		n := 1 + rng.Intn(40)
		start := t0.Add(time.Duration(rng.Int63n(int64(48 * time.Hour)))).In(zones[i%len(zones)])
		s := &wavesegment.Segment{
			Contributor: contributors[i%len(contributors)],
			Start:       start,
			Location:    geo.Point{Lat: value(), Lon: value()},
			Channels:    append([]string(nil), ch...),
			Values:      rows(n, len(ch)),
		}
		switch i % 4 {
		case 0:
			s.Interval = time.Duration(1+rng.Intn(1000)) * time.Millisecond
		case 1:
			s.Interval = time.Duration(1 + rng.Int63n(int64(time.Second)))
		case 2:
			s.Interval = 0
			at := start
			for range s.Values {
				s.Timestamps = append(s.Timestamps, at)
				at = at.Add(time.Duration(1 + rng.Int63n(int64(2*time.Second))))
			}
		default:
			s.Interval = 1500 * time.Microsecond
		}
		for a := rng.Intn(3); a > 0; a-- {
			from := start.Add(time.Duration(rng.Int63n(int64(time.Minute))))
			s.Annotations = append(s.Annotations, wavesegment.Annotation{
				Context: labels[rng.Intn(len(labels))],
				Start:   from,
				End:     from.Add(time.Duration(1 + rng.Int63n(int64(time.Hour)))),
			})
		}
		return s
	}
	for i := 0; i < 48; i++ {
		segs = append(segs, segment(i))
	}
	// Every special float in one segment, in both the data and the
	// location.
	special := &wavesegment.Segment{
		Contributor: "floats",
		Start:       t0,
		Interval:    time.Nanosecond,
		Location:    geo.Point{Lat: 1e-7, Lon: math.Copysign(0, -1)},
		Channels:    []string{wavesegment.ChannelECG},
	}
	for _, f := range fig5Floats {
		special.Values = append(special.Values, []float64{f})
	}
	segs = append(segs, special)

	locations := []geo.AbstractedLocation{
		{Granularity: geo.LocCoordinates, Point: &geo.Point{Lat: 34.0689, Lon: -118.4452}},
		{Granularity: geo.LocCoordinates, Point: &geo.Point{Lat: math.Copysign(0, -1), Lon: 5e-324}},
		{Granularity: geo.LocStreetAddress, Text: "<Main St & 1st>"},
		{Granularity: geo.LocCity, Text: "Zürich"},
		{Granularity: geo.LocNotShared},
	}
	release := func(i int) *abstraction.Release {
		rel := &abstraction.Release{
			Contributor:     contributors[i%len(contributors)],
			TimeGranularity: timeutil.Granularity(i % 8),
			Location:        locations[i%len(locations)],
		}
		if i%8 != int(timeutil.GranNotShared) {
			rel.Start = t0.Add(time.Duration(i) * time.Minute).In(zones[i%len(zones)])
			rel.End = rel.Start.Add(time.Minute)
		}
		if i%5 != 3 {
			rel.Segment = segment(i)
		}
		if i%3 == 0 || rel.Segment == nil {
			rel.Contexts = append(rel.Contexts, wavesegment.Annotation{
				Context: labels[i%len(labels)], Start: rel.Start, End: rel.End,
			})
		}
		return rel
	}
	bodies = append(bodies,
		queryResp{},
		queryResp{Releases: []*abstraction.Release{}},
		queryResp{Releases: []*abstraction.Release{nil, release(3), nil}},
		queryResp{Releases: []*abstraction.Release{{Segment: special}}},
	)
	for b := 0; b < 24; b++ {
		var resp queryResp
		for n := rng.Intn(12); n > 0; n-- {
			resp.Releases = append(resp.Releases, release(rng.Intn(1000)))
		}
		bodies = append(bodies, resp)
	}
	return segs, bodies
}

// fig5Lines reads a golden file as one document per line.
func fig5Lines(t *testing.T, name string) [][]byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "fig5", name))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	return lines[:len(lines)-1] // the file ends with a newline
}

// TestFig5CorpusBytes checks that the segment codec and the /api/query
// response writer produce exactly the bytes encoding/json produced.
func TestFig5CorpusBytes(t *testing.T) {
	segs, bodies := fig5Corpus()
	lines := fig5Lines(t, "segments.jsonl")
	if len(lines) != len(segs) {
		t.Fatalf("%d golden segments, corpus has %d", len(lines), len(segs))
	}
	for i, s := range segs {
		got, err := wavesegment.MarshalJSONSegment(s)
		if err != nil {
			t.Fatalf("segment %d: %v", i, err)
		}
		if want := bytes.TrimSuffix(lines[i], []byte("\n")); !bytes.Equal(got, want) {
			t.Errorf("segment %d:\n got %s\nwant %s", i, got, want)
		}
	}
	lines = fig5Lines(t, "query.jsonl")
	if len(lines) != len(bodies) {
		t.Fatalf("%d golden bodies, corpus has %d", len(lines), len(bodies))
	}
	for i, body := range bodies {
		rec := httptest.NewRecorder()
		writeJSON(rec, body)
		if got := rec.Body.Bytes(); !bytes.Equal(got, lines[i]) {
			t.Errorf("body %d:\n got %s\nwant %s", i, got, lines[i])
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("body %d: Content-Type %q", i, ct)
		}
	}
}

// TestFig5CorpusDecode decodes every golden document and requires it to
// re-encode to its golden bytes.
func TestFig5CorpusDecode(t *testing.T) {
	for i, line := range fig5Lines(t, "segments.jsonl") {
		got, err := wavesegment.UnmarshalJSONSegment(line)
		if err != nil {
			t.Fatalf("segment %d: %v", i, err)
		}
		again, err := wavesegment.MarshalJSONSegment(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, bytes.TrimSuffix(line, []byte("\n"))) {
			t.Errorf("segment %d does not re-encode to its golden bytes", i)
		}
	}
	for i, line := range fig5Lines(t, "query.jsonl") {
		var got queryResp
		if err := json.Unmarshal(line, &got); err != nil {
			t.Fatalf("body %d: %v", i, err)
		}
		rec := httptest.NewRecorder()
		writeJSON(rec, got)
		if !bytes.Equal(rec.Body.Bytes(), line) {
			t.Errorf("body %d does not re-encode to its golden bytes", i)
		}
	}
}

// FuzzQueryResponse hardens the /api/query body decoder: a body it
// accepts is a fixed point of the codec. It re-encodes, those bytes
// decode to an equal value, and that value encodes to the same bytes
// again.
func FuzzQueryResponse(f *testing.F) {
	data, err := os.ReadFile(filepath.Join("testdata", "fig5", "query.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range bytes.SplitAfter(data, []byte("\n")) {
		if len(line) < 1200 { // small seeds keep minimization quick
			f.Add(line)
		}
	}
	f.Add([]byte(`{"Releases":[{"CONTRIBUTOR":"a","start":null,"location":{"point":{"lat":1}},"location":{"point":{"lon":2}}},null],"releases":[{}]}`))
	f.Add([]byte(`{"releases":[{"timeGranularity":1.5}]}`))
	f.Add([]byte(`{"releases":[{"segment":null,"contexts":[{"context":"Drive"}],"x":[1,{"y":true}]}]} `))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var got queryResp
		if json.Unmarshal(data, &got) != nil {
			return
		}
		out, err := json.Marshal(got)
		if err != nil {
			t.Fatalf("accepted body does not re-encode: %v", err)
		}
		var back queryResp
		if err := json.Unmarshal(out, &back); err != nil {
			t.Fatalf("re-encoded %s does not decode: %v", out, err)
		}
		if !sameJSONValue(reflect.ValueOf(back), reflect.ValueOf(got)) {
			t.Fatalf("%s decoded to %+v, was %+v", out, back, got)
		}
		if again, err := json.Marshal(back); err != nil || !bytes.Equal(again, out) {
			t.Fatalf("re-encoding is not a fixed point: %s (%v) then %s", out, err, again)
		}
	})
}
