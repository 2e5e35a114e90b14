package wavesegment

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

func TestJSONRoundTripUniform(t *testing.T) {
	s := uniformSegment(t0, 16)
	_ = s.Annotate("Drive", t0, t0.Add(time.Second))
	data, err := MarshalJSONSegment(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalJSONSegment(data)
	if err != nil {
		t.Fatal(err)
	}
	assertSegmentsEqual(t, s, back)
}

func TestJSONRoundTripTimestamped(t *testing.T) {
	s := timestampedSegment(t0, 0, time.Second, 3*time.Second)
	data, err := MarshalJSONSegment(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalJSONSegment(data)
	if err != nil {
		t.Fatal(err)
	}
	assertSegmentsEqual(t, s, back)
	if back.Interval != 0 || len(back.Timestamps) != 3 {
		t.Errorf("timestamped shape lost: %v", back)
	}
}

// TestJSONRoundTripKeepsTimebase: interval_ms is a float, so the decoder
// rounds it to the nearest nanosecond (truncating turned 249 ns into
// 248), and a timestamped segment starts at its first timestamp whatever
// start_time says, as a decoded blob does.
func TestJSONRoundTripKeepsTimebase(t *testing.T) {
	for _, d := range []time.Duration{249, 251, 489, 333333, 100 * time.Millisecond} {
		s := uniformSegment(t0, 2)
		s.Interval = d
		data, err := MarshalJSONSegment(s)
		if err != nil {
			t.Fatal(err)
		}
		back, err := UnmarshalJSONSegment(data)
		if err != nil {
			t.Fatal(err)
		}
		if back.Interval != d {
			t.Errorf("interval %d ns came back as %d ns", d, back.Interval)
		}
	}
	back, err := UnmarshalJSONSegment([]byte(`{"start_time":"2011-02-16T09:00:00Z","interval_ms":0,"format":["ECG"],"data":[[1]],"timestamps":["2011-02-16T10:00:00Z"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if !back.Start.Equal(t0) {
		t.Errorf("timestamped segment starts at %v, want its first timestamp %v", back.Start, t0)
	}
}

func TestJSONShapeMatchesFig5(t *testing.T) {
	// The Fig. 5 wire format: metadata (start_time, interval_ms, location,
	// format) plus the value blob under "data".
	s := uniformSegment(t0, 2)
	data, err := MarshalJSONSegment(s)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"start_time", "interval_ms", "location", "format", "data"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("wire JSON missing %q: %s", key, data)
		}
	}
	if doc["interval_ms"].(float64) != 100 {
		t.Errorf("interval_ms = %v", doc["interval_ms"])
	}
}

func TestJSONUnmarshalErrors(t *testing.T) {
	cases := []string{
		"not json",
		`{"start_time":"bogus","format":["ECG"],"data":[[1]]}`,
		`{"start_time":"2011-02-16T10:00:00Z","interval_ms":100,"format":[],"data":[[1]]}`,
		`{"start_time":"2011-02-16T10:00:00Z","interval_ms":100,"format":["ECG"],"data":[[1]],"timestamps":["bogus"]}`,
		`{"start_time":"2011-02-16T10:00:00Z","interval_ms":100,"format":["ECG"],"data":[[1,2]]}`,
	}
	for _, in := range cases {
		if _, err := UnmarshalJSONSegment([]byte(in)); err == nil {
			t.Errorf("expected error for %q", in)
		}
	}
}

func TestBinaryRoundTripUniform(t *testing.T) {
	s := uniformSegment(t0, 64)
	_ = s.Annotate("Stress", t0.Add(time.Second), t0.Add(2*time.Second))
	blob, err := MarshalBinary(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalBinary(blob)
	if err != nil {
		t.Fatal(err)
	}
	assertSegmentsEqual(t, s, back)
}

func TestBinaryRoundTripTimestamped(t *testing.T) {
	s := timestampedSegment(t0, 0, 500*time.Millisecond, 7*time.Second)
	blob, err := MarshalBinary(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalBinary(blob)
	if err != nil {
		t.Fatal(err)
	}
	assertSegmentsEqual(t, s, back)
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalBinary([]byte("hello world")); err == nil {
		t.Error("garbage should be rejected")
	}
	if _, err := UnmarshalBinary(nil); err == nil {
		t.Error("empty blob should be rejected")
	}
	// Truncations of a valid blob must error, never panic.
	s := uniformSegment(t0, 8)
	blob, err := MarshalBinary(s)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(blob); cut += 3 {
		if _, err := UnmarshalBinary(blob[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// Bit flips must never panic (they may or may not error).
	for i := 5; i < len(blob); i += 7 {
		corrupt := append([]byte(nil), blob...)
		corrupt[i] ^= 0xFF
		_, _ = UnmarshalBinary(corrupt)
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8, chans uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		nc := int(chans%4) + 1
		ns := int(n%100) + 1
		names := []string{ChannelECG, ChannelRespiration, ChannelAccelX, ChannelMicrophone}[:nc]
		s := &Segment{
			Contributor: "prop",
			Start:       t0.Add(time.Duration(rng.Int63n(1e12))),
			Interval:    time.Duration(rng.Int63n(1e9) + 1),
			Channels:    names,
		}
		for i := 0; i < ns; i++ {
			row := make([]float64, nc)
			for j := range row {
				row[j] = rng.NormFloat64() * 1000
			}
			s.Values = append(s.Values, row)
		}
		blob, err := MarshalBinary(s)
		if err != nil {
			return false
		}
		back, err := UnmarshalBinary(blob)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(s.Values, back.Values) &&
			s.Start.Equal(back.Start) && s.Interval == back.Interval
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBinaryPreservesSpecialFloats(t *testing.T) {
	s := uniformSegment(t0, 1)
	s.Values[0] = []float64{math.Inf(1), math.SmallestNonzeroFloat64}
	blob, err := MarshalBinary(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalBinary(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(back.Values[0][0], 1) || back.Values[0][1] != math.SmallestNonzeroFloat64 {
		t.Errorf("special floats mangled: %v", back.Values[0])
	}
}

func TestBinarySmallerThanJSON(t *testing.T) {
	s := uniformSegment(t0, 1000)
	rng := rand.New(rand.NewSource(7))
	for i := range s.Values {
		for j := range s.Values[i] {
			s.Values[i][j] = rng.NormFloat64() // realistic sensor noise, not small ints
		}
	}
	blob, err := MarshalBinary(s)
	if err != nil {
		t.Fatal(err)
	}
	js, err := MarshalJSONSegment(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) >= len(js) {
		t.Errorf("binary blob (%d B) not smaller than JSON (%d B)", len(blob), len(js))
	}
}

func assertSegmentsEqual(t *testing.T, want, got *Segment) {
	t.Helper()
	if got.Contributor != want.Contributor {
		t.Errorf("contributor %q != %q", got.Contributor, want.Contributor)
	}
	if !got.StartTime().Equal(want.StartTime()) {
		t.Errorf("start %v != %v", got.StartTime(), want.StartTime())
	}
	if got.Interval != want.Interval {
		t.Errorf("interval %v != %v", got.Interval, want.Interval)
	}
	if got.Location != want.Location {
		t.Errorf("location %v != %v", got.Location, want.Location)
	}
	if !reflect.DeepEqual(got.Channels, want.Channels) {
		t.Errorf("channels %v != %v", got.Channels, want.Channels)
	}
	if !reflect.DeepEqual(got.Values, want.Values) {
		t.Errorf("values differ")
	}
	if len(got.Timestamps) != len(want.Timestamps) {
		t.Fatalf("timestamps %d != %d", len(got.Timestamps), len(want.Timestamps))
	}
	for i := range want.Timestamps {
		if !got.Timestamps[i].Equal(want.Timestamps[i]) {
			t.Errorf("timestamp %d: %v != %v", i, got.Timestamps[i], want.Timestamps[i])
		}
	}
	if len(got.Annotations) != len(want.Annotations) {
		t.Fatalf("annotations %d != %d", len(got.Annotations), len(want.Annotations))
	}
	for i := range want.Annotations {
		w, g := want.Annotations[i], got.Annotations[i]
		if g.Context != w.Context || !g.Start.Equal(w.Start) || !g.End.Equal(w.End) {
			t.Errorf("annotation %d: %+v != %+v", i, g, w)
		}
	}
}

// hostileBlobs are short blobs whose counts claim far more than their
// bytes hold: no channels with 2^24 samples, one channel (plain and
// timestamped) with 2^24 samples, and a valid segment that claims 2^20
// annotations.
func hostileBlobs(t testing.TB) map[string][]byte {
	header := func(flags byte, nch, n uint64) []byte {
		b := append(blobMagic[:], flags, 0)
		b = appendInt64(b, t0.UnixNano())
		b = appendInt64(b, int64(time.Second))
		b = append(b, make([]byte, 16)...) // location
		b = binary.AppendUvarint(b, nch)
		for i := uint64(0); i < nch; i++ {
			b = append(b, 1, 'c')
		}
		return binary.AppendUvarint(b, n)
	}
	annotated, err := MarshalBinary(uniformSegment(t0, 1))
	if err != nil {
		t.Fatal(err)
	}
	annotated = binary.AppendUvarint(annotated[:len(annotated)-1], 1<<20)
	return map[string][]byte{
		"no channels, 2^24 samples":    append(header(0, 0, 1<<24), 0, 0),
		"one channel, 2^24 samples":    append(header(0, 1, 1<<24), 0),
		"timestamped, 2^24 samples":    append(header(flagTimestamped, 1, 1<<24), 0),
		"2^20 annotations, none given": annotated,
	}
}

// TestUnmarshalBinaryBoundsAllocations decodes blobs whose counts lie:
// each is refused, and no decode allocates more than 64 bytes per input
// byte plus 4 KiB, whatever the counts claim.
func TestUnmarshalBinaryBoundsAllocations(t *testing.T) {
	var before, after runtime.MemStats
	for name, blob := range hostileBlobs(t) {
		runtime.ReadMemStats(&before)
		_, err := UnmarshalBinary(blob)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		limit := 64*uint64(len(blob)) + 4<<10
		if got := after.TotalAlloc - before.TotalAlloc; got > limit {
			t.Errorf("%s: a %d-byte blob allocated %d bytes, limit %d", name, len(blob), got, limit)
		}
	}
}
