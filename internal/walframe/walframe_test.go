package walframe

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// TestScanRoundTrip: Scan returns every appended body, at the offset its
// frame starts, and an empty body is a frame like any other.
func TestScanRoundTrip(t *testing.T) {
	bodies := [][]byte{[]byte("first"), {}, bytes.Repeat([]byte{0xAB}, 300)}
	var data []byte
	var wantOffs []int
	for _, b := range bodies {
		wantOffs = append(wantOffs, len(data))
		data = Append(data, b)
	}
	var got [][]byte
	var offs []int
	if err := Scan(data, 0, func(off int, body []byte) error {
		offs = append(offs, off)
		got = append(got, bytes.Clone(body))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, bodies) || !reflect.DeepEqual(offs, wantOffs) {
		t.Errorf("Scan = %q at %v, want %q at %v", got, offs, bodies, wantOffs)
	}
	stop := errors.New("stop")
	if err := Scan(data, 0, func(int, []byte) error { return stop }); err != stop {
		t.Errorf("Scan returned %v, want fn's error as is", err)
	}
}

// TestScanBadFrames: each way a frame goes bad stops the scan at that
// frame, and Final tells a torn tail from damage with frames after it.
func TestScanBadFrames(t *testing.T) {
	one := Append(nil, []byte("one"))
	two := Append(nil, []byte("second"))
	log := append(bytes.Clone(one), two...)
	flip := func(data []byte, i int) []byte {
		data = bytes.Clone(data)
		data[i] ^= 0xFF
		return data
	}
	for _, tc := range []struct {
		name    string
		data    []byte
		minBody int
		want    BadFrame
	}{
		{"header cut short", log[:len(one)+5], 0, BadFrame{len(one), "torn frame header", true}},
		{"body cut short", log[:len(log)-1], 0, BadFrame{len(one), "torn frame", true}},
		{"last body corrupt", flip(log, len(log)-1), 0, BadFrame{len(one), "CRC mismatch", true}},
		{"inner body corrupt", flip(log, HeaderLen), 0, BadFrame{0, "CRC mismatch", false}},
		{"inner length grown", flip(log, 0), 0, BadFrame{0, "torn frame", true}},
		{"body under minBody", log, 4, BadFrame{0, "torn frame", false}},
	} {
		bodies := 0
		err := Scan(tc.data, tc.minBody, func(int, []byte) error { bodies++; return nil })
		var bad *BadFrame
		if !errors.As(err, &bad) || *bad != tc.want {
			t.Errorf("%s: Scan = %v, want %+v", tc.name, err, tc.want)
			continue
		}
		if want := tc.want.Off / len(one); bodies != want { // "one" is the only frame before any bad one
			t.Errorf("%s: %d bodies before the bad frame, want %d", tc.name, bodies, want)
		}
	}
}
