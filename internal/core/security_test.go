package core

import (
	"context"
	"testing"
	"time"

	"sensorsafe/internal/audit"
	"sensorsafe/internal/auth"
	"sensorsafe/internal/broker"
	"sensorsafe/internal/geo"
	"sensorsafe/internal/query"
	"sensorsafe/internal/rules"
	"sensorsafe/internal/sensors"
)

// Attack-scenario suite: the paper's future work asks for an analysis of
// the architecture "for various attack scenarios"; each test here encodes
// one scenario and the property that defeats it.

// scenarioNetwork builds one store with Alice's data shared only with Bob.
func scenarioNetwork(t *testing.T) (*Network, *Contributor, *Consumer) {
	t.Helper()
	ctx := context.Background()
	n := network(t, "s")
	alice, err := n.NewContributor("s", "alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.SetRules(`[{"Consumer":["Bob"],"Action":"Allow"}]`); err != nil {
		t.Fatal(err)
	}
	day := &sensors.Scenario{
		Start: t0, Origin: home, Seed: 3,
		Phases: []sensors.Phase{{Duration: time.Minute, Activity: rules.CtxStill}},
	}
	if _, err := alice.RecordDay(ctx, day, false); err != nil {
		t.Fatal(err)
	}
	bob, err := n.NewConsumer("Bob")
	if err != nil {
		t.Fatal(err)
	}
	return n, alice, bob
}

func TestAttackStolenKeyRotation(t *testing.T) {
	// Scenario: Alice's API key leaks. Rotation must invalidate the stolen
	// key immediately while her account (rules, data) stays intact.
	_, alice, _ := scenarioNetwork(t)
	stolen := alice.Key
	fresh, err := alice.Store.RotateKey(alice.Key)
	if err != nil {
		t.Fatal(err)
	}
	if fresh == stolen {
		t.Fatal("rotation must change the key")
	}
	// Thief's copy is dead.
	if _, err := alice.Store.QueryOwn(stolen, &query.Query{}); err == nil {
		t.Error("stolen key must stop working")
	}
	// Alice continues with the new key; her rules survived.
	alice.Key = fresh
	if _, err := alice.Store.QueryOwn(fresh, &query.Query{}); err != nil {
		t.Errorf("fresh key: %v", err)
	}
	data, err := alice.Store.Rules(fresh)
	if err != nil || len(data) == 0 {
		t.Errorf("rules after rotation: %v", err)
	}
}

func TestAttackRoleConfusion(t *testing.T) {
	ctx := context.Background()
	// Scenario: a consumer key is used against every contributor-only
	// surface, and vice versa. Each call must fail on role, not fall
	// through to data.
	_, alice, bob := scenarioNetwork(t)
	svc := alice.Store

	if _, err := svc.UploadCtx(ctx, bob.Key, nil); err == nil {
		t.Error("consumer upload must fail")
	}
	if err := svc.SetRules(bob.Key, []byte(`[{"Action":"Allow"}]`)); err == nil {
		t.Error("consumer rule change must fail")
	}
	if err := svc.DefinePlace(bob.Key, "home", geo.Region{}); err == nil {
		t.Error("consumer place change must fail")
	}
	if _, err := svc.QueryOwn(bob.Key, &query.Query{}); err == nil {
		t.Error("consumer QueryOwn must fail")
	}
	if _, err := svc.Audit(bob.Key, audit.Filter{}); err == nil {
		t.Error("consumer audit read must fail")
	}
	if _, err := svc.QueryCtx(ctx, alice.Key, &query.Query{}); err == nil {
		t.Error("contributor consumer-query must fail")
	}
}

func TestAttackUploadForgery(t *testing.T) {
	ctx := context.Background()
	// Scenario: Mallory (a contributor on the same institutional store)
	// uploads segments claiming to be Alice's, hoping they surface in
	// Alice's data under Alice's permissive rules.
	n, _, bob := scenarioNetwork(t)
	mallory, err := n.NewContributor("s", "mallory")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sensors.Generate("alice", &sensors.Scenario{ // forged owner
		Start: t0.Add(time.Hour), Origin: home, Seed: 9,
		Phases: []sensors.Phase{{Duration: time.Minute, Activity: rules.CtxStill}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mallory.Store.UploadCtx(ctx, mallory.Key, rec.Phone); err == nil {
		t.Fatal("forged upload must be rejected")
	}
	// Bob's view of Alice's data is unchanged (nothing after t0+1h).
	rels, err := bob.QueryCtx(ctx, "alice", &query.Query{From: t0.Add(time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) != 0 {
		t.Error("forged data visible under Alice's identity")
	}
}

func TestAttackGroupSelfAssertion(t *testing.T) {
	ctx := context.Background()
	// Scenario: Eve registers as a consumer and tries to benefit from
	// Alice's group-scoped rule without the contributor (or broker study)
	// granting membership. Group membership is store-side state only the
	// contributor writes; nothing Eve controls carries groups.
	n := network(t, "s")
	alice, _ := n.NewContributor("s", "alice")
	if err := alice.SetRules(`[{"Group":["StressStudy"],"Action":"Allow"}]`); err != nil {
		t.Fatal(err)
	}
	day := &sensors.Scenario{
		Start: t0, Origin: home, Seed: 3,
		Phases: []sensors.Phase{{Duration: time.Minute, Activity: rules.CtxStill}},
	}
	if _, err := alice.RecordDay(ctx, day, false); err != nil {
		t.Fatal(err)
	}
	eve, _ := n.NewConsumer("Eve")
	rels, err := eve.QueryCtx(ctx, "alice", &query.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) != 0 {
		t.Error("Eve accessed group-scoped data without membership")
	}
}

func TestAttackCompromisedBrokerCannotLeakData(t *testing.T) {
	ctx := context.Background()
	// Scenario: the broker is compromised and its replica of Alice's rules
	// is replaced with an allow-everything forgery. The broker's search
	// now lies — but enforcement lives at the store, so the attacker still
	// downloads nothing.
	n := network(t, "s")
	alice, _ := n.NewContributor("s", "alice")
	if err := alice.SetRules(`[{"Consumer":["Bob"],"Action":"Allow"}]`); err != nil {
		t.Fatal(err)
	}
	day := &sensors.Scenario{
		Start: t0, Origin: home, Seed: 3,
		Phases: []sensors.Phase{{Duration: time.Minute, Activity: rules.CtxStill}},
	}
	if _, err := alice.RecordDay(ctx, day, false); err != nil {
		t.Fatal(err)
	}
	// Forged replica: broker believes Alice shares with everyone. The
	// forged version outruns the store's real one so the broker applies it
	// (a stale forgery would be rejected outright).
	if err := n.Broker.SyncRules(ctx, "alice", 99, []byte(`[{"Action":"Allow"}]`), nil); err != nil {
		t.Fatal(err)
	}
	eve, _ := n.NewConsumer("Eve")
	match, err := eve.Search(ctx, &broker.SearchQuery{Sensors: []string{"ECG"}, Reference: t0})
	if err != nil {
		t.Fatal(err)
	}
	if len(match) != 1 {
		t.Fatalf("forged replica should fool the search: %v", match)
	}
	// But the store is authoritative: Eve gets nothing.
	rels, err := eve.QueryCtx(ctx, "alice", &query.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) != 0 {
		t.Error("broker compromise leaked store data")
	}
}

func TestAttackContextFilterProbing(t *testing.T) {
	ctx := context.Background()
	// Scenario: Eve cannot read Alice's stress data but tries to *infer*
	// stress occurrences by issuing context-filtered queries and observing
	// which time windows return results. Filters run on released contexts
	// only, so withheld contexts are unobservable.
	n := network(t, "s")
	alice, _ := n.NewContributor("s", "alice")
	if err := alice.SetRules(`[
	  {"Consumer":["Eve"],"Sensor":["SkinTemperature"],"Action":"Allow"},
	  {"Action":{"Abstraction":{"Stress":"NotShared"}}}
	]`); err != nil {
		t.Fatal(err)
	}
	day := &sensors.Scenario{
		Start: t0, Origin: home, Seed: 3,
		Phases: []sensors.Phase{
			{Duration: time.Minute, Activity: rules.CtxStill, Stressed: true},
			{Duration: time.Minute, Activity: rules.CtxStill},
		},
	}
	if _, err := alice.RecordDay(ctx, day, false); err != nil {
		t.Fatal(err)
	}
	eve, _ := n.NewConsumer("Eve")
	probe, err := eve.QueryCtx(ctx, "alice", &query.Query{Contexts: []string{"Stressed"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(probe) != 0 {
		t.Error("context-filter probing revealed hidden stress spans")
	}
	probeNeg, err := eve.QueryCtx(ctx, "alice", &query.Query{Contexts: []string{"NotStressed"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(probeNeg) != 0 {
		t.Error("negated-context probing revealed hidden stress spans")
	}
}

func TestAttackKeyGuessing(t *testing.T) {
	// Scenario: near-miss keys (one hex digit off) must never authenticate.
	_, alice, _ := scenarioNetwork(t)
	key := []byte(alice.Key)
	for i := 0; i < len(key); i += 7 {
		guess := append([]byte(nil), key...)
		if guess[i] == 'a' {
			guess[i] = 'b'
		} else {
			guess[i] = 'a'
		}
		if _, err := alice.Store.QueryOwn(auth.APIKey(guess), &query.Query{}); err == nil {
			t.Fatalf("near-miss key authenticated at position %d", i)
		}
	}
}
