package stream

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"sensorsafe/internal/abstraction"
	"sensorsafe/internal/geo"
	"sensorsafe/internal/wavesegment"
)

// frameBatch is a batch with every kind of event and every optional part
// of a release present once.
func frameBatch() Batch {
	seg := &wavesegment.Segment{
		Contributor: "alice", Start: t0, Interval: 100 * time.Millisecond,
		Location: geo.Point{Lat: 34.07, Lon: -118.44},
		Channels: []string{wavesegment.ChannelECG}, Values: [][]float64{{1}, {-0.5}},
		Annotations: []wavesegment.Annotation{{Context: "Drive", Start: t0, End: t0.Add(time.Second)}},
	}
	return Batch{
		Events: []Event{
			{Kind: KindData, Seq: 1, Cursor: "1", Contributor: "alice", RuleVersion: 3, Releases: []*abstraction.Release{
				{Contributor: "alice", Start: t0, End: t0.Add(time.Minute), Segment: seg,
					Location: geo.AbstractedLocation{Granularity: geo.LocCoordinates, Point: &geo.Point{Lat: 1, Lon: 2}},
					Contexts: []wavesegment.Annotation{{Context: "Walk", Start: t0, End: t0.Add(time.Minute)}}},
				nil,
				{Location: geo.AbstractedLocation{Granularity: geo.LocCity, Text: "Los Angeles"}},
			}},
			{Kind: KindGap, Seq: 2, Cursor: "9", Dropped: 7},
			{Kind: KindBye, Seq: 10, Cursor: "10"},
		},
		Cursor: "10",
	}
}

func TestBatchFrameRoundTrip(t *testing.T) {
	for _, b := range []Batch{frameBatch(), {}, {Events: []Event{}}} {
		frame, err := b.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		var got Batch
		if err := got.DecodeBinary(frame); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, b) {
			t.Errorf("round trip: got %+v, want %+v", got, b)
		}
	}
}

// FuzzBatchFrame: the stream batch frame decoder never panics, and what
// it accepts re-encodes and decodes to the same value and bytes.
func FuzzBatchFrame(f *testing.F) {
	good, err := frameBatch().AppendBinary(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		var first Batch
		if first.DecodeBinary(data) != nil {
			return
		}
		out, err := first.AppendBinary(nil)
		if err != nil {
			t.Fatalf("decoded batch does not re-encode: %v", err)
		}
		var second Batch
		if err := second.DecodeBinary(out); err != nil {
			t.Fatalf("re-encoded batch does not decode: %v", err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("round trip changed %+v into %+v", first, second)
		}
		if again, err := second.AppendBinary(nil); err != nil || !bytes.Equal(again, out) {
			t.Fatalf("re-encoding is not stable (%v)", err)
		}
	})
}
