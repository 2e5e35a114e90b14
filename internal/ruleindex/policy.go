package ruleindex

import (
	"encoding/json"
	"fmt"
	"sort"

	"sensorsafe/internal/geo"
	"sensorsafe/internal/rules"
)

// A compiled Index is a contributor's whole policy: the rule set, the
// labeled places its rules resolve against, and the version both were
// set at. The store enforces it, the broker searches a replica of it
// and the phone collects under it; all three build it with Compile or
// Load.

// State is a policy's stored form, under the keys the store's and the
// broker's state files use. Rules is the Fig. 4 JSON array, omitted
// when the policy has no rules.
type State struct {
	Rules       json.RawMessage `json:"rules,omitempty"`
	Places      []geo.Region    `json:"places,omitempty"`
	RuleVersion uint64          `json:"ruleVersion,omitempty"`
}

// RuleSet returns the rules as sent on the wire: the JSON array, "[]"
// when there are none.
func (st State) RuleSet() json.RawMessage {
	if len(st.Rules) == 0 {
		return json.RawMessage("[]")
	}
	return st.Rules
}

// Compile builds the policy at version: the gazetteer from places (a
// later place replaces an earlier one with the same label), the engine
// over rs, and the index over the engine. An Index is never changed
// after it is built, so a reader holding one needs no lock; a rule or
// place change compiles a new one at the next version.
func Compile(rs []*rules.Rule, places []geo.Region, version uint64) (*Index, error) {
	gaz := geo.NewGazetteer()
	for _, rg := range places {
		if err := gaz.Define(rg.Label, rg); err != nil {
			return nil, fmt.Errorf("ruleindex: place %q: %w", rg.Label, err)
		}
	}
	eng, err := rules.NewEngine(rs, gaz)
	if err != nil {
		return nil, fmt.Errorf("ruleindex: %w", err)
	}
	return fromEngine(eng, Options{Version: version}), nil
}

// Empty returns the policy a contributor starts with: no rules, no
// places, version 0. It withholds everything.
func Empty() *Index {
	ix, _ := Compile(nil, nil, 0) // no rules or places to reject
	return ix
}

// Load compiles a policy from its stored form.
func Load(st State) (*Index, error) {
	var rs []*rules.Rule
	if len(st.Rules) > 0 {
		var err error
		if rs, err = rules.UnmarshalRuleSet(st.Rules); err != nil {
			return nil, err
		}
	}
	return Compile(rs, st.Places, st.RuleVersion)
}

// State returns the policy's stored form. The rules are marshalled once
// per Index, so st.Rules is shared between calls and read-only.
func (ix *Index) State() (State, error) {
	ix.rulesOnce.Do(func() {
		if len(ix.rs) > 0 {
			ix.rulesJSON, ix.rulesErr = rules.MarshalRuleSet(ix.rs)
		}
	})
	if ix.rulesErr != nil {
		return State{}, ix.rulesErr
	}
	return State{Rules: ix.rulesJSON, Places: ix.Places(), RuleVersion: ix.version}, nil
}

// Places returns the policy's labeled places sorted by label; empty,
// not nil, when there are none.
func (ix *Index) Places() []geo.Region {
	gaz := ix.eng.Gazetteer()
	labels := gaz.Labels()
	sort.Strings(labels)
	out := make([]geo.Region, 0, len(labels))
	for _, l := range labels {
		if rg, ok := gaz.Lookup(l); ok {
			out = append(out, rg)
		}
	}
	return out
}

// Len returns the number of rules; a policy with none withholds
// everything.
func (ix *Index) Len() int { return len(ix.rs) }
