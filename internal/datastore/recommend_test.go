package datastore

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"sensorsafe/internal/geo"
	"sensorsafe/internal/query"
	"sensorsafe/internal/recommend"
	"sensorsafe/internal/rules"
	"sensorsafe/internal/wavesegment"
)

// TestDefinePlaceDoesNotRaceReaders defines places while Recommend and an
// engine handed out by RulesForCtx read the gazetteer; under -race a
// DefinePlace that mutated the shared gazetteer in place is reported.
func TestDefinePlaceDoesNotRaceReaders(t *testing.T) {
	ctx := context.Background()
	s := newService(t, Options{})
	alice, _ := setupAliceBob(t, s)
	p := packet("alice", t0, 600)
	_ = p.Annotate(rules.CtxSmoking, t0, t0.Add(time.Minute))
	if _, err := s.UploadCtx(ctx, alice.Key, []*wavesegment.Segment{p}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetRules(alice.Key, []byte(`[{"LocationLabel":["home"],"Action":"Allow"}]`)); err != nil {
		t.Fatal(err)
	}
	rect, _ := geo.NewRect(geo.Point{Lat: 34.05, Lon: -118.46}, geo.Point{Lat: 34.08, Lon: -118.43})
	if err := s.DefinePlace(alice.Key, "home", geo.Region{Rect: rect}); err != nil {
		t.Fatal(err)
	}
	engine, err := s.RulesForCtx(ctx, alice.Key)
	if err != nil || engine == nil {
		t.Fatalf("engine = %v, %v", engine, err)
	}

	const rounds = 50
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if err := s.DefinePlace(alice.Key, fmt.Sprintf("place%d", i), geo.Region{Rect: rect}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, err := s.Recommend(alice.Key, recommend.Options{}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		req := &rules.Request{Consumer: "bob", At: t0, Location: ucla}
		for i := 0; i < rounds; i++ {
			if !engine.Decide(req).SharesAnything() {
				t.Error("engine stopped matching the home rule")
				return
			}
		}
	}()
	wg.Wait()

	places, err := s.Places(alice.Key)
	if err != nil || len(places) != rounds+1 {
		t.Fatalf("places = %d, %v; want %d", len(places), err, rounds+1)
	}
}

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
