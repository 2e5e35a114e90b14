package datastore

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"sensorsafe/internal/audit"
	"sensorsafe/internal/auth"
	"sensorsafe/internal/geo"
	"sensorsafe/internal/query"
	"sensorsafe/internal/rules"
	"sensorsafe/internal/wavesegment"
)

// The files under testdata were written by the store before a
// contributor's policy became one compiled value: state.json is the
// state file of a store with rules, places, a rule set set to [], a
// contributor with places only, one with nothing, group assignments,
// subscriptions and a sync outbox the store no longer keeps;
// sync_pushes.json is what a push of every contributor, in name order,
// sent from it; decisions.json is what the restored policies decided
// for policyProbes.

// pushRecorder captures every replica push exactly as the broker client
// would send it.
type pushRecorder struct{ pushes []recordedPush }

type recordedPush struct {
	Contributor string       `json:"contributor"`
	Version     uint64       `json:"version"`
	Rules       string       `json:"rules"`
	Places      []geo.Region `json:"places"`
}

func (r *pushRecorder) SyncRulesCtx(_ context.Context, c string, v uint64, rs []byte, ps []geo.Region) error {
	r.pushes = append(r.pushes, recordedPush{c, v, string(rs), ps})
	return nil
}

func (r *pushRecorder) SyncDigestCtx(_ context.Context, _ string, versions map[string]uint64) ([]string, error) {
	return allStale(versions), nil
}

// readJSON decodes a file into a generic value, so two files compare
// equal regardless of key order and indentation.
func readJSON(t *testing.T, path string) any {
	t.Helper()
	var v any
	if err := json.Unmarshal(mustRead(t, path), &v); err != nil {
		t.Fatal(err)
	}
	return v
}

// policyProbes is the request grid decisions.json was recorded over.
func policyProbes() []*rules.Request {
	var out []*rules.Request
	at := time.Date(2011, 2, 16, 10, 0, 0, 0, time.UTC)
	for _, c := range []string{"Bob", "frank"} {
		var groups []string
		if c == "Bob" {
			groups = []string{"Study"}
		}
		for _, loc := range []geo.Point{{Lat: 34.06, Lon: -118.44}, {Lat: 34.02, Lon: -118.49}, {}} {
			for _, h := range []int{0, 3, 12} {
				for _, ctxs := range [][]string{nil, {"Drive"}} {
					out = append(out, &rules.Request{Consumer: c, ConsumerGroups: groups,
						At: at.Add(time.Duration(h) * time.Hour), Location: loc, ActiveContexts: ctxs})
				}
			}
		}
	}
	return out
}

// TestParentStateFileLoads: a state file written before the policy
// refactor loads into the same users, policies, groups and subscriptions
// (re-saving it writes equal JSON, less the outbox "pendingSync"),
// pushes the same replica bodies, and decides the same.
func TestParentStateFileLoads(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, stateFileName), mustRead(t, filepath.Join("testdata", "state.json")), 0o600); err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // Close re-saves the state file
		t.Fatal(err)
	}
	want := readJSON(t, filepath.Join("testdata", "state.json")).(map[string]any)
	if _, ok := want["pendingSync"]; !ok {
		t.Fatal("testdata/state.json has no pendingSync to drop")
	}
	delete(want, "pendingSync")
	if got := readJSON(t, filepath.Join(dir, stateFileName)); !reflect.DeepEqual(got, any(want)) {
		t.Errorf("re-saved state differs from the loaded file:\n got %v\nwant %v", got, want)
	}

	rec := &pushRecorder{}
	s, err = New(Options{Dir: dir, Sync: rec, Name: "store-a"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.AntiEntropy(); err != nil {
		t.Fatal(err)
	}
	var wantPushes []recordedPush
	if err := json.Unmarshal(mustRead(t, filepath.Join("testdata", "sync_pushes.json")), &wantPushes); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec.pushes, wantPushes) {
		t.Errorf("replica pushes:\n got %+v\nwant %+v", rec.pushes, wantPushes)
	}
	for _, p := range rec.pushes {
		if p.Places == nil {
			t.Errorf("%s: places pushed as null, want []", p.Contributor)
		}
	}

	var wantDecisions []struct {
		Contributor string            `json:"contributor"`
		Version     uint64            `json:"version"`
		Decisions   []*rules.Decision `json:"decisions"`
	}
	if err := json.Unmarshal(mustRead(t, filepath.Join("testdata", "decisions.json")), &wantDecisions); err != nil {
		t.Fatal(err)
	}
	for _, want := range wantDecisions {
		d, v, err := s.StreamEngine(want.Contributor)
		if err != nil {
			t.Fatal(err)
		}
		if v != want.Version {
			t.Errorf("%s: version %d, want %d", want.Contributor, v, want.Version)
		}
		for i, req := range policyProbes() {
			got := d.Decide(req)
			got.Cached = false
			g, _ := json.Marshal(got)
			w, _ := json.Marshal(want.Decisions[i])
			if string(g) != string(w) {
				t.Errorf("%s probe %d: decision %s, want %s", want.Contributor, i, g, w)
			}
		}
	}
}

func mustRead(t testing.TB, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestNoRulesIsOneState: a contributor whose rules were set to [] and
// one who never set any are the same empty policy, before and after a
// restart — not listed by RuleIndexStats, no engine for the phone, a
// decider that withholds everything, and a read audited as withheld at
// the policy's version.
func TestNoRulesIsOneState(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	carol, err := s.RegisterContributor("carol")
	if err != nil {
		t.Fatal(err)
	}
	erin, err := s.RegisterContributor("erin")
	if err != nil {
		t.Fatal(err)
	}
	bob, err := s.RegisterConsumer("Bob")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetRules(carol.Key, []byte(`[]`)); err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{"carol", "erin"} {
		key := carol.Key
		if u == "erin" {
			key = erin.Key
		}
		if _, err := s.UploadCtx(ctx, key, []*wavesegment.Segment{packet(u, t0, 10)}); err != nil {
			t.Fatal(err)
		}
	}

	check := func(phase string) {
		t.Helper()
		if stats := s.RuleIndexStats(); len(stats) != 0 {
			t.Errorf("%s: RuleIndexStats = %v, want no contributor listed", phase, stats)
		}
		for _, c := range []struct {
			name    string
			key     auth.APIKey
			version uint64
		}{{"carol", carol.Key, 1}, {"erin", erin.Key, 0}} {
			d, v, err := s.StreamEngine(c.name)
			if err != nil || d == nil || v != c.version {
				t.Fatalf("%s: StreamEngine(%s) = %v, %d, %v; want the empty policy at version %d", phase, c.name, d, v, err, c.version)
			}
			if got := d.Decide(&rules.Request{Consumer: "Bob", At: t0}); got.SharesAnything() {
				t.Errorf("%s: %s's empty policy shares %+v", phase, c.name, got)
			}
			if eng, err := s.RulesForCtx(ctx, c.key); eng != nil || err != nil {
				t.Errorf("%s: RulesForCtx(%s) = %v, %v; want nil, nil", phase, c.name, eng, err)
			}
			rels, err := s.QueryCtx(ctx, bob.Key, &query.Query{Contributor: c.name})
			if err != nil || len(rels) != 0 {
				t.Fatalf("%s: query %s = %d releases, %v; want none", phase, c.name, len(rels), err)
			}
			events, err := s.Audit(c.key, audit.Filter{})
			if err != nil {
				t.Fatal(err)
			}
			if len(events) != 1 || events[0].Outcome != audit.OutcomeWithheld || events[0].RuleVersion != c.version {
				t.Errorf("%s: %s's trail = %+v; want one withheld read at version %d", phase, c.name, events, c.version)
			}
		}
	}
	check("before restart")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = New(Options{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	check("after restart")
}
