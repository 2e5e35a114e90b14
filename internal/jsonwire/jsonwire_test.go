package jsonwire

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1e-7, 1e-6, 9.99e-7, 1e21, 1e20, 999999999999999900000,
		5e-324, math.MaxFloat64, -math.MaxFloat64, 1.0 / 3, 0.1, -2.5e-8, 123456789.125, 1e-100,
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		floats = append(floats, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(80)-40)))
		floats = append(floats, math.Float64frombits(rng.Uint64()))
	}
	for _, f := range floats {
		want, wantErr := json.Marshal(f)
		got, err := AppendFloat([]byte("x"), f)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%v: error %v, encoding/json %v", f, err, wantErr)
		}
		if err == nil && string(got) != "x"+string(want) {
			t.Fatalf("%v: got %s, want %s", f, got[1:], want)
		}
	}
}

func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	for _, s := range []string{
		"", "ECG", "a b", `q"uote`, `back\slash`, "<&>", "tab\there", "nl\n", "\x00\x1f\x7f",
		"Zoë 李", "  ", "bad \xff utf8", "\xed\xa0\x80",
	} {
		want, _ := json.Marshal(s)
		if got := AppendString(nil, s); string(got) != string(want) {
			t.Errorf("%q: got %s, want %s", s, got, want)
		}
	}
}

// readerCases are documents on both sides of JSON's grammar.
var readerCases = []string{
	`null`, `true`, `false`, `0`, `-0`, `1.5e-3`, `1E+2`, `"s"`, `[]`, `{}`, ` [1, {"a":[null]}] `,
	`{"a":1,"a":2}`, `"é😀\ud800x\/"`, "\"\xff\"",
	``, ` `, `nul`, `nulll`, `01`, `1.`, `.5`, `-`, `1e`, `+1`, `[1,]`, `{"a":1,}`, `{"a"}`, `{a:1}`,
	`[1 2]`, `"\x"`, `"\u12"`, "\"a\tb\"", `"\'"`, `{"a":1}}`, `[`, `{"a":`, `"`, "\ufeff{}", `tru`, `NaN`,
	strings.Repeat("[", 10000) + strings.Repeat("]", 10000),
	strings.Repeat("[", 10001) + strings.Repeat("]", 10001),
}

func TestRawAcceptsWhatEncodingJSONAccepts(t *testing.T) {
	for _, doc := range readerCases {
		r := NewReader([]byte(doc))
		_, err := r.Raw()
		if err == nil {
			err = r.End()
		}
		if got, want := err == nil, json.Valid([]byte(doc)); got != want {
			t.Errorf("%.40q: accepted %v, encoding/json %v (%v)", doc, got, want, err)
		}
	}
}

func TestStringMatchesEncodingJSON(t *testing.T) {
	for _, doc := range readerCases {
		var want string
		wantErr := json.Unmarshal([]byte(doc), &want)
		got := "unchanged"
		r := NewReader([]byte(doc))
		err := r.StringInto(&got)
		if err == nil {
			err = r.End()
		}
		if wantErr == nil && doc == "null" {
			want = "unchanged" // null leaves a string as it was
		}
		if (err == nil) != (wantErr == nil) || (err == nil && got != want) {
			t.Errorf("%.40q: got %q (%v), want %q (%v)", doc, got, err, want, wantErr)
		}
	}
}

func TestSliceDecodesIntoExistingElements(t *testing.T) {
	// A repeated key: the second array decodes into the first one's
	// elements, so null keeps what was there and the tail the first
	// array grew stays reachable within capacity.
	for _, doc := range []string{
		`{"v":[[1,2,3,4]],"v":[[5,6,7]],"v":[[8,9,10,null]]}`,
		`{"v":[[1,2]],"v":[null,[3]],"v":[]}`,
		`{"v":[[1,2],[3,4]],"v":[[9]],"v":[[7],[null,null]]}`,
	} {
		var want struct{ V [][]float64 }
		if err := json.Unmarshal([]byte(doc), &want); err != nil {
			t.Fatal(err)
		}
		var got [][]float64
		r := NewReader([]byte(doc))
		err := r.Object(func(key []byte) error {
			if Field(key, []string{"V"}) != 0 {
				return r.Skip()
			}
			var err error
			got, err = Slice(r, got, func(row *[]float64) error {
				if r.Null() {
					*row = nil
					return nil
				}
				var err error
				*row, err = Slice(r, *row, r.FloatInto)
				return err
			})
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want.V) {
			t.Errorf("%s: got %v, want %v", doc, got, want.V)
		}
	}
}

func TestFieldFoldsCase(t *testing.T) {
	names := []string{"start_time", "data"}
	for key, want := range map[string]int{
		"data": 1, "DATA": 1, "Start_Time": 0, "ſtart_time": 0, "start_tim": -1, "datum": -1,
	} {
		if got := Field([]byte(key), names); got != want {
			t.Errorf("Field(%q) = %d, want %d", key, got, want)
		}
	}
}

// FuzzReader checks that the reader accepts exactly the documents
// encoding/json accepts, and decodes strings and numbers as it does.
func FuzzReader(f *testing.F) {
	for _, doc := range readerCases[:len(readerCases)-2] {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		_, err := r.Raw()
		if err == nil {
			err = r.End()
		}
		if (err == nil) != json.Valid(data) {
			t.Fatalf("accepted %v, encoding/json %v (%v)", err == nil, json.Valid(data), err)
		}
		var s, wantS string
		r = NewReader(data)
		err = r.StringInto(&s)
		if err == nil {
			err = r.End()
		}
		wantErr := json.Unmarshal(data, &wantS)
		if (err == nil) != (wantErr == nil) || (err == nil && s != wantS) {
			t.Fatalf("string %q (%v), encoding/json %q (%v)", s, err, wantS, wantErr)
		}
		var x, wantX float64
		r = NewReader(data)
		err = r.FloatInto(&x)
		if err == nil {
			err = r.End()
		}
		wantErr = json.Unmarshal(data, &wantX)
		if (err == nil) != (wantErr == nil) || (err == nil && math.Float64bits(x) != math.Float64bits(wantX)) {
			t.Fatalf("number %v (%v), encoding/json %v (%v)", x, err, wantX, wantErr)
		}
	})
}
