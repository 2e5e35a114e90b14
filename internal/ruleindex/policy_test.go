package ruleindex

import (
	"reflect"
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
