package datastore

import (
	"context"
	"testing"
	"time"

	"sensorsafe/internal/audit"
	"sensorsafe/internal/query"
	"sensorsafe/internal/rules"
	"sensorsafe/internal/wavesegment"
)

func TestQueryIsAudited(t *testing.T) {
	ctx := context.Background()
	s := newService(t, Options{})
	alice, bob := setupAliceBob(t, s)
	p := packet("alice", t0, 600)
	_ = p.Annotate(rules.CtxConversation, t0.Add(20*time.Second), t0.Add(40*time.Second))
	if _, err := s.UploadCtx(ctx, alice.Key, []*wavesegment.Segment{p}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetRules(alice.Key, []byte(`[
	  {"Consumer":["Bob"],"Action":"Allow"},
	  {"Consumer":["Bob"],"Context":["Conversation"],
	   "Action":{"Abstraction":{"Stress":"NotShared"}}}
	]`)); err != nil {
		t.Fatal(err)
	}

	if _, err := s.QueryCtx(ctx, bob.Key, &query.Query{}); err != nil {
		t.Fatal(err)
	}
	// Eve gets nothing — still audited as withheld.
	eve, _ := s.RegisterConsumer("Eve")
	if _, err := s.QueryCtx(ctx, eve.Key, &query.Query{}); err != nil {
		t.Fatal(err)
	}

	events, err := s.Audit(alice.Key, audit.Filter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no audit events")
	}
	var raw, abstracted, withheld int
	for _, e := range events {
		if e.Contributor != "alice" {
			t.Errorf("foreign contributor in alice's trail: %+v", e)
		}
		switch e.Outcome {
		case audit.OutcomeRaw:
			raw++
			if e.Consumer != "Bob" {
				t.Errorf("raw release to %s", e.Consumer)
			}
		case audit.OutcomeAbstracted:
			abstracted++
		case audit.OutcomeWithheld:
			withheld++
			if e.Consumer != "Eve" {
				t.Errorf("withheld event for %s, want Eve", e.Consumer)
			}
		}
	}
	// Bob's conversation span is abstracted (ECG/Respiration projected
	// away), the flanks are raw; Eve's whole segment is withheld.
	if raw == 0 || abstracted == 0 || withheld == 0 {
		t.Errorf("outcomes raw=%d abstracted=%d withheld=%d; want all nonzero", raw, abstracted, withheld)
	}

	sums, err := s.AuditSummary(alice.Key)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 2 {
		t.Fatalf("summaries = %+v", sums)
	}
	if sums[0].Consumer != "Bob" || sums[0].Raw != raw {
		t.Errorf("bob summary = %+v", sums[0])
	}
	if sums[1].Consumer != "Eve" || sums[1].Withheld != 1 || sums[1].DataSpan != 0 {
		t.Errorf("eve summary = %+v", sums[1])
	}

	// Consumers cannot read audit trails.
	if _, err := s.Audit(bob.Key, audit.Filter{}); err == nil {
		t.Error("consumers must not read audit trails")
	}
	// Filters pass through.
	got, err := s.Audit(alice.Key, audit.Filter{Consumer: "Eve"})
	if err != nil || len(got) != 1 {
		t.Errorf("filtered audit = %v, %v", got, err)
	}
	// A contributor's filter cannot escape their own trail.
	got, err = s.Audit(alice.Key, audit.Filter{Contributor: "carol"})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range got {
		if e.Contributor != "alice" {
			t.Error("audit filter escaped owner scope")
		}
	}
}

func TestAuditRecordsQueryText(t *testing.T) {
	ctx := context.Background()
	s := newService(t, Options{})
	alice, bob := setupAliceBob(t, s)
	if _, err := s.UploadCtx(ctx, alice.Key, packetStream("alice", t0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.SetRules(alice.Key, []byte(`[{"Action":"Allow"}]`)); err != nil {
		t.Fatal(err)
	}
	q := &query.Query{Channels: []string{"ECG"}, Limit: 5}
	if _, err := s.QueryCtx(ctx, bob.Key, q); err != nil {
		t.Fatal(err)
	}
	events, _ := s.Audit(alice.Key, audit.Filter{})
	if len(events) == 0 || events[0].Query != q.String() {
		t.Errorf("audited query = %q, want %q", events[0].Query, q.String())
	}
	if len(events[0].Channels) != 1 || events[0].Channels[0] != "ECG" {
		t.Errorf("audited channels = %v", events[0].Channels)
	}
}

// TestAnswerCarriesOneRuleVersion: every record of one answer is decided
// by the contributor's policy as the answer first read it, so however
// the rules change while it is built, all its audit events carry one
// rule version.
func TestAnswerCarriesOneRuleVersion(t *testing.T) {
	ctx := context.Background()
	s := newService(t, Options{})
	alice, bob := setupAliceBob(t, s)
	const records = 64
	var segs []*wavesegment.Segment
	for i := 0; i < records; i++ { // a minute apart, so none merge
		segs = append(segs, packet("alice", t0.Add(time.Duration(i)*time.Minute), 4))
	}
	if n, err := s.UploadCtx(ctx, alice.Key, segs); err != nil || n != records {
		t.Fatalf("upload stored %d records, %v; want %d", n, err, records)
	}
	flips := [][]byte{[]byte(`[{"Action":"Allow"}]`), []byte(`[{"Consumer":["Bob"],"Action":"Allow"}]`)}
	if err := s.SetRules(alice.Key, flips[0]); err != nil {
		t.Fatal(err)
	}
	stop, flipped := make(chan struct{}), make(chan error)
	go func() {
		for i := 1; ; i++ {
			select {
			case <-stop:
				flipped <- nil
				return
			default:
			}
			if err := s.SetRules(alice.Key, flips[i%2]); err != nil {
				flipped <- err
				return
			}
		}
	}()
	for n := 0; n < 40; n++ {
		before := s.trail.Len()
		if _, err := s.QueryCtx(ctx, bob.Key, &query.Query{}); err != nil {
			t.Fatal(err)
		}
		events := s.trail.Events(audit.Filter{Limit: s.trail.Len() - before})
		if len(events) != records {
			t.Fatalf("answer %d left %d audit events, want %d", n, len(events), records)
		}
		for _, ev := range events {
			if ev.RuleVersion != events[0].RuleVersion {
				t.Fatalf("answer %d carries rule versions %d and %d", n, events[0].RuleVersion, ev.RuleVersion)
			}
		}
	}
	close(stop)
	if err := <-flipped; err != nil {
		t.Fatal(err)
	}
}
