package abstraction

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"sensorsafe/internal/geo"
	"sensorsafe/internal/jsonwire"
	"sensorsafe/internal/timeutil"
	"sensorsafe/internal/wavesegment"
)

// TestReleaseJSONMatchesEncodingJSON pins the hand-written Release codec
// to encoding/json's reading of the struct tags: a field added to Release
// fails here until AppendJSON and DecodeJSON know it.
func TestReleaseJSONMatchesEncodingJSON(t *testing.T) {
	if n := reflect.TypeOf(Release{}).NumField(); n != len(releaseFields) {
		t.Fatalf("Release has %d fields, its codec knows %d", n, len(releaseFields))
	}
	t0 := time.Date(2011, 2, 16, 10, 0, 0, 0, time.UTC)
	rel := &Release{
		Contributor:     "Zoë <&>",
		Start:           t0,
		End:             t0.Add(time.Hour),
		TimeGranularity: timeutil.GranHour,
		Location:        geo.AbstractedLocation{Granularity: geo.LocCoordinates, Point: &geo.Point{Lat: 34.0689, Lon: -118.4452}, Text: "x"},
		Segment: &wavesegment.Segment{
			Contributor: "Zoë <&>", Start: t0, Interval: time.Second, Channels: []string{wavesegment.ChannelECG},
			Values: [][]float64{{1e-7}, {1e21}},
		},
		Contexts: []wavesegment.Annotation{{Context: "Drive", Start: t0, End: t0.Add(time.Minute)}},
	}
	for _, r := range []*Release{rel, {}} {
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.AppendJSON(nil)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("AppendJSON = %s (%v), encoding/json %s", got, err, want)
		}
		var dec, ref Release
		if err := dec.DecodeJSON(jsonwire.NewReader(want)); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(want, &ref); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(dec, ref) {
			t.Errorf("DecodeJSON = %+v, encoding/json %+v", dec, ref)
		}
	}
}
