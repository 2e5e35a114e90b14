package binwire

import (
	"errors"
	"math"
	"testing"
	"time"
)

// TestTimeRoundTrip covers the instants UnixNano cannot hold: the zero
// time and years outside 1678–2262 come back equal.
func TestTimeRoundTrip(t *testing.T) {
	for _, want := range []time.Time{
		{},
		time.Date(1, 1, 1, 0, 0, 0, 1, time.UTC),
		time.Date(1500, 6, 1, 12, 0, 0, 0, time.UTC),
		time.Date(2011, 2, 16, 8, 30, 0, 999999999, time.FixedZone("PST", -8*3600)),
		time.Date(9999, 12, 31, 23, 59, 59, 0, time.UTC),
	} {
		r := NewReader(AppendTime(nil, want))
		if got := r.Time(); r.End() != nil || !got.Equal(want) || got.IsZero() != want.IsZero() {
			t.Errorf("%v came back as %v (%v)", want, got, r.End())
		}
	}
}

// TestListRefusesOverlongCount feeds a list header claiming 2^32
// elements in five bytes: the read fails before allocating.
func TestListRefusesOverlongCount(t *testing.T) {
	r := NewReader([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	calls := 0
	if got := List(r, 1, func(*byte) { calls++ }); got != nil || calls != 0 || r.Err() == nil {
		t.Errorf("List = %d elements after %d calls, err %v", len(got), calls, r.Err())
	}
	r = NewReader(append(AppendString(nil, "ab"), 0))
	if got := r.Str(); got != "ab" || r.End() == nil {
		t.Errorf("trailing byte not reported: %q, %v", got, r.End())
	}
}

func TestFiniteRefusesNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := AppendFinite(nil, f); !errors.Is(err, ErrNonFinite) {
			t.Errorf("AppendFinite(%v) = %v", f, err)
		}
		r := NewReader(AppendFloat64(nil, f))
		if r.Finite(); !errors.Is(r.Err(), ErrNonFinite) {
			t.Errorf("Finite read %v: %v", f, r.Err())
		}
	}
}
