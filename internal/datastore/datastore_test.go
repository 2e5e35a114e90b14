package datastore

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"sensorsafe/internal/audit"
	"sensorsafe/internal/auth"
	"sensorsafe/internal/geo"
	"sensorsafe/internal/query"
	"sensorsafe/internal/rules"
	"sensorsafe/internal/segstore"
	"sensorsafe/internal/wavesegment"
)

var (
	t0   = time.Date(2011, 2, 16, 10, 0, 0, 0, time.UTC) // Wednesday
	ucla = geo.Point{Lat: 34.0689, Lon: -118.4452}
)

func newService(t *testing.T, opts Options) *Service {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func packet(contributor string, start time.Time, n int, channels ...string) *wavesegment.Segment {
	if len(channels) == 0 {
		channels = []string{wavesegment.ChannelECG, wavesegment.ChannelRespiration}
	}
	s := &wavesegment.Segment{
		Contributor: contributor,
		Start:       start,
		Interval:    100 * time.Millisecond,
		Location:    ucla,
		Channels:    channels,
	}
	for i := 0; i < n; i++ {
		row := make([]float64, len(channels))
		for j := range row {
			row[j] = float64(i)
		}
		s.Values = append(s.Values, row)
	}
	return s
}

// stream returns count consecutive 64-sample packets at 10 Hz.
func packetStream(contributor string, start time.Time, count int) []*wavesegment.Segment {
	var out []*wavesegment.Segment
	at := start
	for i := 0; i < count; i++ {
		p := packet(contributor, at, 64)
		out = append(out, p)
		at = p.EndTime()
	}
	return out
}

func setupAliceBob(t testing.TB, s *Service) (alice, bob auth.User) {
	t.Helper()
	var err error
	if alice, err = s.RegisterContributor("alice"); err != nil {
		t.Fatal(err)
	}
	if bob, err = s.RegisterConsumer("Bob"); err != nil {
		t.Fatal(err)
	}
	return alice, bob
}

func TestRegisterAndRoles(t *testing.T) {
	ctx := context.Background()
	s := newService(t, Options{})
	alice, bob := setupAliceBob(t, s)
	if alice.Role != auth.RoleContributor || bob.Role != auth.RoleConsumer {
		t.Fatal("roles wrong")
	}
	// Role enforcement.
	if _, err := s.UploadCtx(ctx, bob.Key, packetStream("Bob", t0, 1)); !errors.Is(err, ErrNotContributor) {
		t.Errorf("consumer upload: %v", err)
	}
	if _, err := s.QueryCtx(ctx, alice.Key, &query.Query{}); !errors.Is(err, ErrNotConsumer) {
		t.Errorf("contributor query: %v", err)
	}
	if _, err := s.UploadCtx(ctx, "bogus", nil); !errors.Is(err, auth.ErrBadKey) {
		t.Errorf("bad key: %v", err)
	}
}

func TestUploadOptimizesPackets(t *testing.T) {
	ctx := context.Background()
	s := newService(t, Options{MaxSegmentSamples: 1 << 20})
	alice, _ := setupAliceBob(t, s)
	// 100 consecutive 64-sample packets merge into one record.
	n, err := s.UploadCtx(ctx, alice.Key, packetStream("alice", t0, 100))
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("records written = %d, want 1", n)
	}
	if s.SegmentCount() != 1 {
		t.Errorf("SegmentCount = %d, want 1", s.SegmentCount())
	}
}

func TestUploadsExtendStreamTail(t *testing.T) {
	ctx := context.Background()
	s := newService(t, Options{MaxSegmentSamples: 1 << 20})
	alice, _ := setupAliceBob(t, s)
	packets := packetStream("alice", t0, 10)
	// Upload in two consecutive batches: the second must extend the first's
	// record instead of creating another.
	if _, err := s.UploadCtx(ctx, alice.Key, packets[:5]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.UploadCtx(ctx, alice.Key, packets[5:]); err != nil {
		t.Fatal(err)
	}
	if s.SegmentCount() != 1 {
		t.Errorf("SegmentCount = %d, want 1 after tail extension", s.SegmentCount())
	}
	segs, err := s.QueryOwn(alice.Key, &query.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0].NumSamples() != 640 {
		t.Errorf("stored = %d segments, %d samples", len(segs), segs[0].NumSamples())
	}
}

// TestUploadAcrossFlushLeavesNoTombstone: a persistent store's tail lives
// in the memtable, so an upload continuing a stream whose record was
// flushed starts a new record instead of deleting the flushed one and
// rewriting it; compaction then joins the two.
func TestUploadAcrossFlushLeavesNoTombstone(t *testing.T) {
	ctx := context.Background()
	s := newService(t, Options{Dir: t.TempDir()})
	alice, _ := setupAliceBob(t, s)
	packets := packetStream("alice", t0, 10)
	if _, err := s.UploadCtx(ctx, alice.Key, packets[:5]); err != nil {
		t.Fatal(err)
	}
	if err := s.store.(*segstore.Store).Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.UploadCtx(ctx, alice.Key, packets[5:]); err != nil {
		t.Fatal(err)
	}
	st, _ := s.SegmentStoreStats()
	if st.Tombstones != 0 {
		t.Errorf("tombstones = %d after uploading across a flush, want 0", st.Tombstones)
	}
	segs, err := s.QueryOwn(alice.Key, &query.Query{})
	if err != nil {
		t.Fatal(err)
	}
	samples := 0
	for _, seg := range segs {
		samples += seg.NumSamples()
	}
	if samples != 640 {
		t.Errorf("stored %d samples, want 640", samples)
	}
	if err := s.store.(*segstore.Store).Compact(); err != nil {
		t.Fatal(err)
	}
	if s.SegmentCount() != 1 {
		t.Errorf("SegmentCount = %d after compaction, want the two records joined", s.SegmentCount())
	}
}

func TestUploadRespectsSegmentCap(t *testing.T) {
	ctx := context.Background()
	s := newService(t, Options{MaxSegmentSamples: 200})
	alice, _ := setupAliceBob(t, s)
	if _, err := s.UploadCtx(ctx, alice.Key, packetStream("alice", t0, 10)); err != nil {
		t.Fatal(err)
	}
	segs, _ := s.QueryOwn(alice.Key, &query.Query{})
	for _, seg := range segs {
		if seg.NumSamples() > 200 {
			t.Errorf("segment exceeds cap: %d samples", seg.NumSamples())
		}
	}
	if len(segs) >= 10 {
		t.Errorf("no compaction: %d records", len(segs))
	}
}

func TestUploadOwnershipChecks(t *testing.T) {
	ctx := context.Background()
	s := newService(t, Options{})
	alice, _ := setupAliceBob(t, s)
	// Foreign contributor name rejected.
	if _, err := s.UploadCtx(ctx, alice.Key, packetStream("mallory", t0, 1)); !errors.Is(err, ErrWrongOwner) {
		t.Errorf("foreign upload: %v", err)
	}
	// Blank contributor is stamped with the owner.
	p := packet("", t0, 10)
	if _, err := s.UploadCtx(ctx, alice.Key, []*wavesegment.Segment{p}); err != nil {
		t.Fatal(err)
	}
	segs, _ := s.QueryOwn(alice.Key, &query.Query{})
	if len(segs) != 1 || segs[0].Contributor != "alice" {
		t.Errorf("stamped contributor = %v", segs)
	}
	// Invalid segments rejected.
	if _, err := s.UploadCtx(ctx, alice.Key, []*wavesegment.Segment{{}}); err == nil {
		t.Error("invalid segment should be rejected")
	}
	if _, err := s.UploadCtx(ctx, alice.Key, []*wavesegment.Segment{nil}); err == nil {
		t.Error("nil segment should be rejected")
	}
}

func TestQueryDefaultDeny(t *testing.T) {
	ctx := context.Background()
	s := newService(t, Options{})
	alice, bob := setupAliceBob(t, s)
	if _, err := s.UploadCtx(ctx, alice.Key, packetStream("alice", t0, 5)); err != nil {
		t.Fatal(err)
	}
	rels, err := s.QueryCtx(ctx, bob.Key, &query.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) != 0 {
		t.Errorf("no rules set: releases = %d, want 0", len(rels))
	}
}

func TestSetRulesAndQuery(t *testing.T) {
	ctx := context.Background()
	s := newService(t, Options{})
	alice, bob := setupAliceBob(t, s)
	if _, err := s.UploadCtx(ctx, alice.Key, packetStream("alice", t0, 5)); err != nil {
		t.Fatal(err)
	}
	if err := s.SetRules(alice.Key, []byte(`[{"Consumer":["Bob"],"Action":"Allow"}]`)); err != nil {
		t.Fatal(err)
	}
	rels, err := s.QueryCtx(ctx, bob.Key, &query.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) != 1 || rels[0].Segment == nil {
		t.Fatalf("releases = %v", rels)
	}
	if rels[0].Segment.NumSamples() != 320 {
		t.Errorf("released samples = %d", rels[0].Segment.NumSamples())
	}
	// Round trip of rules JSON.
	policy, err := s.Policy(alice.Key)
	data := policy.Rules
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rules.UnmarshalRuleSet(data)
	if err != nil || len(rs) != 1 {
		t.Errorf("rules = %v, %v", rs, err)
	}
	// Eve the unknown consumer cannot query; unknown keys fail.
	if _, err := s.QueryCtx(ctx, "bogus", &query.Query{}); err == nil {
		t.Error("bad key should fail")
	}
	// A second consumer is not covered by Alice's Bob-only rule.
	eve, _ := s.RegisterConsumer("Eve")
	rels, err = s.QueryCtx(ctx, eve.Key, &query.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) != 0 {
		t.Error("Eve must get nothing")
	}
}

func TestSetRulesRejectsBadJSON(t *testing.T) {
	s := newService(t, Options{})
	alice, _ := setupAliceBob(t, s)
	if err := s.SetRules(alice.Key, []byte(`[{"Action":"Explode"}]`)); err == nil {
		t.Error("bad rules should be rejected")
	}
	if err := s.SetRules(alice.Key, []byte(`{`)); err == nil {
		t.Error("bad JSON should be rejected")
	}
}

func TestDefinePlaceAffectsRules(t *testing.T) {
	ctx := context.Background()
	s := newService(t, Options{})
	alice, bob := setupAliceBob(t, s)
	if _, err := s.UploadCtx(ctx, alice.Key, packetStream("alice", t0, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.SetRules(alice.Key, []byte(`[{"Consumer":["Bob"],"LocationLabel":["UCLA"],"Action":"Allow"}]`)); err != nil {
		t.Fatal(err)
	}
	// Label not defined yet: rule cannot match.
	rels, _ := s.QueryCtx(ctx, bob.Key, &query.Query{})
	if len(rels) != 0 {
		t.Error("undefined label should match nothing")
	}
	rect, _ := geo.NewRect(geo.Point{Lat: 34.05, Lon: -118.46}, geo.Point{Lat: 34.08, Lon: -118.43})
	if err := s.DefinePlace(alice.Key, "UCLA", geo.Region{Rect: rect}); err != nil {
		t.Fatal(err)
	}
	rels, _ = s.QueryCtx(ctx, bob.Key, &query.Query{})
	if len(rels) != 1 {
		t.Errorf("after defining UCLA: releases = %d, want 1", len(rels))
	}
	policy, err := s.Policy(alice.Key)
	places := policy.Places
	if err != nil || len(places) != 1 || places[0].Label != "UCLA" {
		t.Errorf("places = %v, %v", places, err)
	}
	if err := s.DefinePlace(alice.Key, "", geo.Region{Rect: rect}); err == nil {
		t.Error("empty label should be rejected")
	}
}

func TestQueryChannelProjectionAndContextFilter(t *testing.T) {
	ctx := context.Background()
	s := newService(t, Options{})
	alice, bob := setupAliceBob(t, s)
	p := packet("alice", t0, 600, wavesegment.ChannelECG, wavesegment.ChannelAccelX)
	_ = p.Annotate(rules.CtxDrive, t0, t0.Add(30*time.Second))
	if _, err := s.UploadCtx(ctx, alice.Key, []*wavesegment.Segment{p}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetRules(alice.Key, []byte(`[{"Action":"Allow"}]`)); err != nil {
		t.Fatal(err)
	}

	// Channel projection. The Drive annotation edge at +30 s splits
	// enforcement into two spans, so two releases come back, each ECG-only.
	rels, err := s.QueryCtx(ctx, bob.Key, &query.Query{Channels: []string{"ECG"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) != 2 {
		t.Fatalf("projected releases = %d, want 2", len(rels))
	}
	for _, rel := range rels {
		if len(rel.Segment.Channels) != 1 || rel.Segment.Channels[0] != "ECG" {
			t.Fatalf("projected channels = %v", rel.Segment.Channels)
		}
	}

	// Context filter: Drive spans only.
	rels, err = s.QueryCtx(ctx, bob.Key, &query.Query{Contexts: []string{"Drive"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) != 1 {
		t.Fatalf("context filter releases = %d", len(rels))
	}
	if len(rels[0].Contexts) == 0 || rels[0].Contexts[0].Context != rules.CtxDrive {
		t.Errorf("contexts = %v", rels[0].Contexts)
	}

	// Context filter for a context that never occurs.
	rels, err = s.QueryCtx(ctx, bob.Key, &query.Query{Contexts: []string{"Smoking"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) != 0 {
		t.Error("no smoking spans exist")
	}
}

func TestContextFilterCannotLeakHiddenContexts(t *testing.T) {
	ctx := context.Background()
	// Alice hides stress; Bob filters by Stressed. Even though raw
	// annotations contain stress spans, the filter runs on released
	// contexts, so nothing comes back.
	s := newService(t, Options{})
	alice, bob := setupAliceBob(t, s)
	p := packet("alice", t0, 600)
	_ = p.Annotate(rules.CtxStressed, t0, t0.Add(60*time.Second))
	if _, err := s.UploadCtx(ctx, alice.Key, []*wavesegment.Segment{p}); err != nil {
		t.Fatal(err)
	}
	ruleJSON := `[
	  {"Action": {"Abstraction": {"Stress": "NotShared"}}}
	]`
	if err := s.SetRules(alice.Key, []byte(ruleJSON)); err != nil {
		t.Fatal(err)
	}
	rels, err := s.QueryCtx(ctx, bob.Key, &query.Query{Contexts: []string{"Stressed"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) != 0 {
		t.Fatalf("hidden context leaked through filter: %+v", rels)
	}
}

func TestGroupScopedRules(t *testing.T) {
	ctx := context.Background()
	s := newService(t, Options{})
	alice, bob := setupAliceBob(t, s)
	if _, err := s.UploadCtx(ctx, alice.Key, packetStream("alice", t0, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.SetRules(alice.Key, []byte(`[{"Group":["StressStudy"],"Action":"Allow"}]`)); err != nil {
		t.Fatal(err)
	}
	// Bob not in the study yet.
	rels, _ := s.QueryCtx(ctx, bob.Key, &query.Query{})
	if len(rels) != 0 {
		t.Error("non-member should get nothing")
	}
	if err := s.AssignConsumerGroups(alice.Key, "Bob", []string{"StressStudy"}); err != nil {
		t.Fatal(err)
	}
	rels, _ = s.QueryCtx(ctx, bob.Key, &query.Query{})
	if len(rels) != 1 {
		t.Errorf("member releases = %d, want 1", len(rels))
	}
}

func TestQueryOwnScopedToOwner(t *testing.T) {
	ctx := context.Background()
	s := newService(t, Options{})
	alice, _ := setupAliceBob(t, s)
	carol, err := s.RegisterContributor("carol")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.UploadCtx(ctx, alice.Key, packetStream("alice", t0, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.UploadCtx(ctx, carol.Key, packetStream("carol", t0, 1)); err != nil {
		t.Fatal(err)
	}
	segs, err := s.QueryOwn(alice.Key, &query.Query{Contributor: "carol"})
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		if seg.Contributor != "alice" {
			t.Error("QueryOwn must not expose other contributors' data")
		}
	}
	if len(segs) != 1 {
		t.Errorf("alice sees %d segments", len(segs))
	}
}

type recordingSync struct {
	mu      sync.Mutex
	calls   []string
	digests int
}

func (r *recordingSync) SyncRulesCtx(_ context.Context, contributor string, version uint64, ruleSet []byte, places []geo.Region) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.calls = append(r.calls, contributor)
	return nil
}

func (r *recordingSync) SyncDigestCtx(_ context.Context, storeAddr string, versions map[string]uint64) ([]string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.digests++
	return nil, nil
}

func TestRuleSyncPushes(t *testing.T) {
	sync := &recordingSync{}
	s := newService(t, Options{Sync: sync})
	alice, _ := setupAliceBob(t, s)
	if err := s.SetRules(alice.Key, []byte(`[{"Action":"Allow"}]`)); err != nil {
		t.Fatal(err)
	}
	rect, _ := geo.NewRect(geo.Point{Lat: 34, Lon: -119}, geo.Point{Lat: 35, Lon: -118})
	if err := s.DefinePlace(alice.Key, "UCLA", geo.Region{Rect: rect}); err != nil {
		t.Fatal(err)
	}
	if len(sync.calls) != 2 {
		t.Errorf("sync calls = %v, want 2", sync.calls)
	}
	if err := s.ResyncAll(); err != nil {
		t.Fatal(err)
	}
	if len(sync.calls) != 3 {
		t.Errorf("after ResyncAll calls = %v", sync.calls)
	}
}

func TestPersistentServiceSurvivesReopen(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	alice, err := s.RegisterContributor("alice")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.UploadCtx(ctx, alice.Key, packetStream("alice", t0, 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.SegmentCount() != 1 {
		t.Errorf("segments after reopen = %d, want 1", s2.SegmentCount())
	}
}

func TestRulesForEngine(t *testing.T) {
	ctx := context.Background()
	s := newService(t, Options{})
	alice, _ := setupAliceBob(t, s)
	e, err := s.RulesForCtx(ctx, alice.Key)
	if err != nil {
		t.Fatal(err)
	}
	if e != nil {
		t.Error("no rules yet: engine should be nil")
	}
	if err := s.SetRules(alice.Key, []byte(`[{"Action":"Allow"}]`)); err != nil {
		t.Fatal(err)
	}
	e, err = s.RulesForCtx(ctx, alice.Key)
	if err != nil || e == nil {
		t.Fatalf("engine = %v, %v", e, err)
	}
	d := e.Decide(&rules.Request{Consumer: "anyone", At: t0, Location: ucla})
	if !d.SharesAnything() {
		t.Error("allow-all engine should share")
	}
}

func TestAccessorsAndProvisioning(t *testing.T) {
	ctx := context.Background()
	s := newService(t, Options{Name: "store-x"})
	if s.Name() != "store-x" || s.Addr() != "store-x" {
		t.Errorf("Name/Addr = %q/%q", s.Name(), s.Addr())
	}
	if s.Users() == nil || s.Web() == nil || s.Storage() == nil {
		t.Error("accessors must not be nil")
	}
	key, err := s.ProvisionConsumer(ctx, "bob")
	if err != nil || key == "" {
		t.Fatalf("ProvisionConsumer = %q, %v", key, err)
	}
	if _, err := s.QueryCtx(ctx, key, &query.Query{}); err != nil {
		t.Errorf("provisioned key should query: %v", err)
	}
	if _, err := s.ProvisionConsumer(ctx, "bob"); err == nil {
		t.Error("duplicate provisioning should fail")
	}
}

func TestRotateKeyLocal(t *testing.T) {
	s := newService(t, Options{})
	alice, _ := setupAliceBob(t, s)
	fresh, err := s.RotateKey(alice.Key)
	if err != nil || fresh == alice.Key {
		t.Fatalf("rotate = %q, %v", fresh, err)
	}
	if _, err := s.QueryOwn(alice.Key, &query.Query{}); err == nil {
		t.Error("old key should be dead")
	}
	if _, err := s.QueryOwn(fresh, &query.Query{}); err != nil {
		t.Errorf("fresh key: %v", err)
	}
	if _, err := s.RotateKey("bogus"); err == nil {
		t.Error("unknown key rotation should fail")
	}
}

func TestConcurrentUploadsAndQueries(t *testing.T) {
	ctx := context.Background()
	s := newService(t, Options{})
	alice, bob := setupAliceBob(t, s)
	if err := s.SetRules(alice.Key, []byte(`[{"Action":"Allow"}]`)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			start := t0.Add(time.Duration(w) * time.Hour)
			for i := 0; i < 10; i++ {
				if _, err := s.UploadCtx(ctx, alice.Key, packetStream("alice", start.Add(time.Duration(i)*time.Minute), 2)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := s.QueryCtx(ctx, bob.Key, &query.Query{Limit: 5}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestLimitCountsReleasedRecords: Limit counts records that released
// something. A withheld record before the granted one must not use up
// the limit, or the consumer gets silently less and limit − answers
// counts the withheld records.
func TestLimitCountsReleasedRecords(t *testing.T) {
	ctx := context.Background()
	s := newService(t, Options{})
	alice, bob := setupAliceBob(t, s)
	if err := s.SetRules(alice.Key, []byte(`[{"Sensor":["SkinTemperature"],"Action":"Allow"}]`)); err != nil {
		t.Fatal(err)
	}
	segs := []*wavesegment.Segment{
		packet("alice", t0, 10, wavesegment.ChannelECG),
		packet("alice", t0.Add(time.Hour), 10, wavesegment.ChannelSkinTemp),
		packet("alice", t0.Add(2*time.Hour), 10, wavesegment.ChannelSkinTemp),
	}
	if _, err := s.UploadCtx(ctx, alice.Key, segs); err != nil {
		t.Fatal(err)
	}
	for i, c := range []struct{ limit, want int }{{1, 1}, {0, 2}, {2, 2}, {3, 2}} {
		rels, err := s.QueryCtx(ctx, bob.Key, &query.Query{Limit: c.limit})
		if err != nil {
			t.Fatal(err)
		}
		if len(rels) != c.want {
			t.Errorf("Limit %d: %d releases, want %d", c.limit, len(rels), c.want)
		}
		for _, r := range rels {
			if r.Start.Before(t0.Add(time.Hour)) {
				t.Errorf("Limit %d: release at %v, want only the skin-temperature records", c.limit, r.Start)
			}
		}
		if i > 0 {
			continue
		}
		// The trail records exactly what Limit 1 returned: the withheld
		// ECG record and the first granted record, not the second.
		events, err := s.Audit(alice.Key, audit.Filter{})
		if err != nil {
			t.Fatal(err)
		}
		if len(events) != 2 || events[0].Outcome == audit.OutcomeWithheld || events[1].Outcome != audit.OutcomeWithheld {
			t.Errorf("trail after Limit 1 = %+v; want one withheld read, then one release", events)
		}
	}
}

// TestLimitScanIsBounded: a Limit query examines about Limit records,
// not every match, and a withheld record costs one more.
func TestLimitScanIsBounded(t *testing.T) {
	ctx := context.Background()
	s := newService(t, Options{})
	alice, bob := setupAliceBob(t, s)
	if err := s.SetRules(alice.Key, []byte(`[{"Sensor":["SkinTemperature"],"Action":"Allow"}]`)); err != nil {
		t.Fatal(err)
	}
	segs := []*wavesegment.Segment{packet("alice", t0, 10, wavesegment.ChannelECG)}
	for i := 1; i <= 40; i++ {
		segs = append(segs, packet("alice", t0.Add(time.Duration(i)*time.Hour), 10, wavesegment.ChannelSkinTemp))
	}
	if _, err := s.UploadCtx(ctx, alice.Key, segs); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		q       query.Query
		scanned float64
	}{
		{query.Query{Limit: 3, From: t0.Add(time.Hour)}, 3},
		{query.Query{Limit: 1}, 2},
		{query.Query{Limit: 5}, 6},
	} {
		before := metricSegmentsScanned.Value()
		rels, err := s.QueryCtx(ctx, bob.Key, &c.q)
		if err != nil {
			t.Fatal(err)
		}
		if len(rels) != c.q.Limit {
			t.Errorf("%s: %d releases, want %d", c.q.String(), len(rels), c.q.Limit)
		}
		if got := metricSegmentsScanned.Value() - before; got != c.scanned {
			t.Errorf("%s: scanned %v records, want %v", c.q.String(), got, c.scanned)
		}
	}
}
