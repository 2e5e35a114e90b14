package ruleindex

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sensorsafe/internal/geo"
	"sensorsafe/internal/rules"
)

// TestPolicyStateRoundTrip: Load(ix.State()) is the same policy — rules,
// places sorted by label (a redefined label keeps its last region) and
// version — and an empty policy's stored form omits the rules, while its
// wire form is "[]".
func TestPolicyStateRoundTrip(t *testing.T) {
	r1, _ := geo.NewRect(geo.Point{Lat: 1, Lon: 1}, geo.Point{Lat: 2, Lon: 2})
	r2, _ := geo.NewRect(geo.Point{Lat: 3, Lon: 3}, geo.Point{Lat: 4, Lon: 4})
	rs, err := rules.UnmarshalRuleSet([]byte(`[{"ID":"a","LocationLabel":["work"],"Action":"Allow"},{"ID":"b","Consumer":["Bob"],"Action":"Deny"}]`))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Compile(rs, []geo.Region{{Label: "work", Rect: r1}, {Label: "Home", Rect: r1}, {Label: "WORK", Rect: r2}}, 7)
	if err != nil {
		t.Fatal(err)
	}
	st, err := ix.State()
	if err != nil {
		t.Fatal(err)
	}
	want := []geo.Region{{Label: "Home", Rect: r1}, {Label: "WORK", Rect: r2}}
	if !reflect.DeepEqual(st.Places, want) || st.RuleVersion != 7 || ix.Len() != 2 {
		t.Fatalf("state = %+v, len %d; want places %v at version 7 with 2 rules", st, ix.Len(), want)
	}
	back, err := Load(st)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := back.State()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, st2) {
		t.Errorf("Load(State()) = %+v, want %+v", st2, st)
	}
	req := &rules.Request{Consumer: "Eve", Location: geo.Point{Lat: 3.5, Lon: 3.5}}
	if !reflect.DeepEqual(back.Decide(req), ix.Decide(req)) {
		t.Error("reloaded policy decides differently")
	}

	empty, err := Empty().State()
	if err != nil {
		t.Fatal(err)
	}
	if empty.Rules != nil || empty.Places == nil || len(empty.Places) != 0 || string(empty.RuleSet()) != "[]" {
		t.Errorf("empty state = %+v (wire rules %s); want no rules, places [], wire rules []", empty, empty.RuleSet())
	}
	if _, err := Compile(nil, []geo.Region{{Label: "nowhere"}}, 1); err == nil {
		t.Error("a place without geometry must not compile")
	}
}

// marshalOnceShapes are the stored policies TestStateMarshalsRulesOnce
// checks: every contributor of the datastore's parent-written state file,
// and the bench's four rule-set shapes (allow, fig4, wide, deny).
func marshalOnceShapes(t *testing.T) map[string]State {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "datastore", "testdata", "state.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Contributors map[string]State `json:"contributors"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]State)
	for name, st := range file.Contributors {
		out["state.json/"+name] = st
	}
	ager := `{"Consumer":["carol"],"Action":{"Abstraction":{"Activity":"Binary"}}}`
	wide := []string{`{"Consumer":["bob"],"Action":"Allow"}`,
		`{"Consumer":["bob"],"Action":{"Abstraction":{"Location":"Zipcode","Time":"Hour"}}}`, ager}
	for i := 0; len(wide) < 50; i++ {
		if i%2 == 0 {
			wide = append(wide, fmt.Sprintf(`{"Consumer":["consumer-%02d"],"Sensor":["ECG"],"Action":"Allow"}`, i%39))
		} else {
			wide = append(wide, fmt.Sprintf(`{"Consumer":["consumer-%02d"],"Action":{"Abstraction":{"Location":"Zipcode","Time":"Hour"}}}`, i%39))
		}
	}
	ucla, err := geo.NewRect(geo.Point{Lat: 34.06, Lon: -118.46}, geo.Point{Lat: 34.08, Lon: -118.43})
	if err != nil {
		t.Fatal(err)
	}
	for name, rs := range map[string]string{
		"allow": `[{"Consumer":["bob"],"Action":"Allow"},` + ager + `]`,
		"fig4": `[{"Consumer":["bob"],"Action":"Allow"},{"Consumer":["bob"],"LocationLabel":["UCLA"],` +
			`"RepeatTime":{"Day":["Mon","Tue","Wed","Thu","Fri"],"HourMin":["9:00am","6:00pm"]},` +
			`"Context":["Conversation"],"Action":{"Abstraction":{"Stress":"NotShared"}}},` + ager + `]`,
		"wide": "[" + strings.Join(wide, ",") + "]",
		"deny": `[{"Consumer":["mallory"],"Action":"Allow"},` + ager + `]`,
	} {
		out["bench/"+name] = State{Rules: json.RawMessage(rs), Places: []geo.Region{{Label: "UCLA", Rect: ucla}}, RuleVersion: 3}
	}
	return out
}

// TestStateMarshalsRulesOnce: State's JSON is byte-identical to what it
// was when every call ran rules.MarshalRuleSet, and only the first call
// marshals: a later one allocates no more than Places does.
func TestStateMarshalsRulesOnce(t *testing.T) {
	for name, stored := range marshalOnceShapes(t) {
		ix, err := Load(stored)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		parent := State{Places: ix.Places(), RuleVersion: ix.version}
		if len(ix.rs) > 0 {
			if parent.Rules, err = rules.MarshalRuleSet(ix.rs); err != nil {
				t.Fatal(err)
			}
		}
		want, err := json.Marshal(parent)
		if err != nil {
			t.Fatal(err)
		}
		for call := 1; call <= 2; call++ {
			st, err := ix.State()
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: State call %d = %s\nwant %s", name, call, got, want)
			}
		}
		state := testing.AllocsPerRun(20, func() { _, _ = ix.State() })
		places := testing.AllocsPerRun(20, func() { _ = ix.Places() })
		if state > places {
			t.Errorf("%s: a repeated State call allocates %.0f times, Places alone %.0f: it marshals again", name, state, places)
		}
	}
}
