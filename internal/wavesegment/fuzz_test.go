package wavesegment

import (
	"bytes"
	"testing"
	"time"
)

// FuzzUnmarshalBinary hardens the storage blob decoder against corrupt WAL
// contents: it must reject or round-trip, never panic, and anything it
// accepts must validate.
func FuzzUnmarshalBinary(f *testing.F) {
	good, err := MarshalBinary(uniformSegment(time.Date(2011, 2, 16, 10, 0, 0, 0, time.UTC), 32))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	ts, err := MarshalBinary(timestampedSegment(time.Date(2011, 2, 16, 10, 0, 0, 0, time.UTC), 0, time.Second))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ts)
	f.Add([]byte{})
	f.Add([]byte("WSG1"))
	f.Add([]byte("WSG1\x00\x00\x00"))
	for _, blob := range hostileBlobs(f) {
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		seg, err := UnmarshalBinary(data)
		if err != nil {
			return
		}
		if verr := seg.Validate(); verr != nil {
			t.Fatalf("decoder accepted invalid segment: %v", verr)
		}
		// Accepted blobs re-encode and decode to the same shape.
		out, err := MarshalBinary(seg)
		if err != nil {
			t.Fatalf("accepted segment does not re-encode: %v", err)
		}
		back, err := UnmarshalBinary(out)
		if err != nil {
			t.Fatalf("re-encoded blob does not decode: %v", err)
		}
		if back.NumSamples() != seg.NumSamples() || len(back.Channels) != len(seg.Channels) {
			t.Fatal("round trip changed shape")
		}
	})
}

// FuzzUnmarshalJSONSegment hardens the Fig. 5 decoder (upload API
// input): a document it accepts is a fixed point of the codec. It
// re-encodes, those bytes decode to an equal segment, and that segment
// encodes to the same bytes again.
func FuzzUnmarshalJSONSegment(f *testing.F) {
	good, err := MarshalJSONSegment(uniformSegment(time.Date(2011, 2, 16, 10, 0, 0, 0, time.UTC), 8))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	ts, err := MarshalJSONSegment(timestampedSegment(time.Date(2011, 2, 16, 10, 0, 0, 0, time.UTC), 0, time.Second))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ts)
	f.Add([]byte(`{"start_time":"2011-02-16T10:00:00Z","interval_ms":100,"format":["ECG"],"data":[[1]]}`))
	f.Add([]byte(`{"START_TIME":"2011-02-16T10:00:00Z","Interval_Ms":1e2,"locatioN":{"LAT":1},"format":["ECG"],"data":[[1,null]],"data":[[2]]}`))
	f.Add([]byte(`{"start_time":"2011-02-16T10:00:00Z","interval_ms":1,"format":["\u00e9\ud800"],"data":[[-0.0e-0]],"annotations":[{"context":"Drive","start":"2011-02-16T10:00:00Z","end":"2011-02-16T10:00:01Z"}],"x":[{}]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"start_time":"x"}`))
	f.Add([]byte(`{"start_time":"2011-02-16T10:00:00Z","interval_ms":0.0002495,"format":["ECG"],"data":[[1]]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		seg, err := UnmarshalJSONSegment(data)
		if err != nil {
			return
		}
		out, err := MarshalJSONSegment(seg)
		if err != nil {
			t.Fatalf("accepted segment does not re-encode: %v", err)
		}
		back, err := UnmarshalJSONSegment(out)
		if err != nil {
			t.Fatalf("re-encoded %s does not decode: %v", out, err)
		}
		assertSegmentsEqual(t, seg, back)
		if again, err := MarshalJSONSegment(back); err != nil || !bytes.Equal(again, out) {
			t.Fatalf("re-encoding is not a fixed point: %s (%v) then %s", out, err, again)
		}
	})
}
