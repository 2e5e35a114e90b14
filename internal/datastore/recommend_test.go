package datastore

import (
	"context"
	"testing"
	"time"

	"sensorsafe/internal/query"
	"sensorsafe/internal/recommend"
	"sensorsafe/internal/rules"
	"sensorsafe/internal/wavesegment"
)

func TestRecommendFromStoredData(t *testing.T) {
	ctx := context.Background()
	s := newService(t, Options{})
	alice, bob := setupAliceBob(t, s)

	// Alice's stored day: mostly stressed while driving.
	p := packet("alice", t0, 3600) // 6 minutes at 10 Hz
	_ = p.Annotate(rules.CtxStressed, t0, t0.Add(4*time.Minute))
	_ = p.Annotate(rules.CtxDrive, t0, t0.Add(3*time.Minute))
	if _, err := s.UploadCtx(ctx, alice.Key, []*wavesegment.Segment{p}); err != nil {
		t.Fatal(err)
	}

	sugs, err := s.Recommend(alice.Key, recommend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sugs) == 0 {
		t.Fatal("expected suggestions")
	}
	if sugs[0].Sensitive != rules.CategoryStress {
		t.Errorf("top suggestion = %+v", sugs[0])
	}

	// Consumers cannot mine a contributor's data.
	if _, err := s.Recommend(bob.Key, recommend.Options{}); err == nil {
		t.Error("consumers must not get recommendations")
	}

	// The suggested rule, installed, actually protects the data.
	ruleSet := `[{"Action":"Allow"},` + sugs[0].RuleJSON + `]`
	if err := s.SetRules(alice.Key, []byte(ruleSet)); err != nil {
		t.Fatalf("suggested rule does not install: %v\n%s", err, ruleSet)
	}
	rels, err := s.QueryCtx(ctx, bob.Key, &query.Query{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range rels {
		driving := false
		for _, c := range rel.Contexts {
			if c.Context == rules.CtxDrive {
				driving = true
			}
		}
		if !driving {
			continue
		}
		for _, c := range rel.Contexts {
			if c.Context == rules.CtxStressed {
				t.Error("stress leaked while driving after installing the suggestion")
			}
		}
		if rel.Segment != nil && rel.Segment.HasChannel(wavesegment.ChannelECG) {
			t.Error("ECG leaked while driving after installing the suggestion")
		}
	}
}
