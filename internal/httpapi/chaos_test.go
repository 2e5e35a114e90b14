package httpapi

import (
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"sensorsafe/internal/auth"
	"sensorsafe/internal/broker"
	"sensorsafe/internal/datastore"
	"sensorsafe/internal/federation"
	"sensorsafe/internal/phone"
	"sensorsafe/internal/query"
	"sensorsafe/internal/resilience"
	"sensorsafe/internal/resilience/faultnet"
	"sensorsafe/internal/rules"
	"sensorsafe/internal/sensors"
	"sensorsafe/internal/stream"
	"sensorsafe/internal/wavesegment"
)

// Chaos suite: every network hop runs through a seeded fault-injecting
// transport while the resilience fabric (retries, idempotency keys,
// durable outboxes, anti-entropy) must preserve the system's invariants —
// zero sample loss once connectivity returns, exactly-once mutations, and
// replica convergence. `make chaos` runs exactly these tests; the seed is
// fixed so failures reproduce.
const chaosSeed = 0xC4A05

// chaosPolicy retries aggressively, waiting a twenty-fifth of each
// production backoff (2 ms first, 80 ms at the cap) so the suite stays
// fast.
func chaosPolicy() *resilience.Policy {
	return &resilience.Policy{
		MaxAttempts: 8,
		Sleep: func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d / 25)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-t.C:
				return nil
			}
		},
	}
}

// chaosDeployment is a broker + one store over real HTTP, with separate
// fault-injecting transports on the client→store and store→broker hops.
type chaosDeployment struct {
	brokerSvc    *broker.Service
	brokerClient *BrokerClient
	storeSvc     *datastore.Service
	storeClient  *StoreClient
	storeNet     *faultnet.Transport // faults on client→store traffic
	brokerNet    *faultnet.Transport // faults on store→broker traffic
}

func deployChaos(t *testing.T, storeRules, brokerRules []faultnet.Rule) *chaosDeployment {
	t.Helper()
	bsvc := broker.New()
	brokerServer := httptest.NewServer(NewBrokerHandler(bsvc))
	t.Cleanup(brokerServer.Close)
	bnet := faultnet.New(chaosSeed, nil, brokerRules...)
	bc := &BrokerClient{
		BaseURL: brokerServer.URL,
		HTTP:    &http.Client{Transport: bnet, Timeout: 10 * time.Second},
		Retry:   chaosPolicy(),
	}

	var storeURL string
	svc, err := datastore.New(datastore.Options{
		Name:      "store-chaos",
		Sync:      bc,
		Directory: &lazyDirectory{bc: bc, addr: &storeURL},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	storeServer := httptest.NewServer(NewStoreHandler(svc))
	t.Cleanup(storeServer.Close)
	storeURL = storeServer.URL

	snet := faultnet.New(chaosSeed+1, nil, storeRules...)
	sc := &StoreClient{
		BaseURL: storeServer.URL,
		HTTP:    &http.Client{Transport: snet, Timeout: 10 * time.Second},
		Retry:   chaosPolicy(),
	}
	// The broker provisions consumers over a clean connection — the hops
	// under test are client→store and store→broker.
	bsvc.RegisterStore(&StoreClient{BaseURL: storeServer.URL})
	return &chaosDeployment{
		brokerSvc: bsvc, brokerClient: bc,
		storeSvc: svc, storeClient: sc,
		storeNet: snet, brokerNet: bnet,
	}
}

func sumSamples(segs []*wavesegment.Segment) int {
	total := 0
	for _, s := range segs {
		total += s.NumSamples()
	}
	return total
}

// TestChaosUploadZeroLoss runs a phone session with ~30% of store requests
// failing (dropped connections + injected 503s). Batches that exhaust
// their retries spill to the durable outbox; once the network heals, a
// drain must deliver every sample exactly once.
func TestChaosUploadZeroLoss(t *testing.T) {
	ctx := context.Background()
	d := deployChaos(t, []faultnet.Rule{
		{Path: "/api/", Drop: 0.2, Status: 0.1, StatusCode: 503, RetryAfter: time.Millisecond},
	}, nil)
	alice, err := d.storeClient.RegisterCtx(ctx, "alice", "contributor")
	if err != nil {
		t.Fatal(err)
	}

	p := &phone.Phone{
		Contributor:  "alice",
		Key:          alice.Key,
		Store:        d.storeClient,
		BatchPackets: 2,
		Outbox:       &phone.Outbox{Dir: filepath.Join(t.TempDir(), "outbox")},
	}
	rep, err := p.RunCtx(ctx, &sensors.Scenario{
		Start: t0, Origin: home, Seed: 3,
		Phases: []sensors.Phase{{Duration: 4 * time.Minute, Activity: rules.CtxStill}},
	})
	if err != nil {
		t.Fatalf("session must survive 30%% faults: %v", err)
	}
	if d.storeNet.TotalInjected() == 0 {
		t.Fatal("no faults injected — the chaos run exercised nothing")
	}

	// Total blackout for the next session: every batch must spill.
	d.storeNet.Configure(faultnet.Rule{Path: "/api/", Drop: 1})
	rep2, err := p.RunCtx(ctx, &sensors.Scenario{
		Start: t0.Add(time.Hour), Origin: home, Seed: 4,
		Phases: []sensors.Phase{{Duration: 2 * time.Minute, Activity: rules.CtxStill}},
	})
	if err != nil {
		t.Fatalf("blackout session must not abort: %v", err)
	}
	if rep2.BatchesSpilled == 0 {
		t.Fatal("blackout produced no spills")
	}

	// Heal, then drain everything that spilled.
	d.storeNet.Configure()
	if _, _, err := p.DrainOutbox(ctx); err != nil {
		t.Fatalf("drain after heal: %v", err)
	}
	if p.Outbox.Pending() != 0 {
		t.Fatalf("outbox still holds %d batches after heal", p.Outbox.Pending())
	}

	segs, err := d.storeSvc.QueryOwn(alice.Key, &query.Query{})
	if err != nil {
		t.Fatal(err)
	}
	want := rep.SamplesUploaded + rep2.SamplesUploaded
	if got := sumSamples(segs); got != want {
		t.Fatalf("store holds %d samples, phone sent %d (spilled %d+%d batches): loss or duplication",
			got, want, rep.BatchesSpilled, rep2.BatchesSpilled)
	}
}

// TestChaosMutationExactlyOnce tears response bodies on mutating calls:
// the server executes the mutation, the client never sees the reply and
// retries with the same idempotency key, and the server must replay the
// recorded outcome instead of executing twice. Registration is the
// sharpest probe — a second execution would return 409 duplicate-user —
// and upload counts prove no batch was ingested twice.
func TestChaosMutationExactlyOnce(t *testing.T) {
	ctx := context.Background()
	d := deployChaos(t, []faultnet.Rule{
		{Path: "/api/", Torn: 0.4},
	}, nil)

	// Every registration must succeed: whenever an attempt's response was
	// torn after the server executed, only an idempotent replay can save
	// the retry from a duplicate-user conflict.
	users := []string{"alice", "bob", "carol", "dave", "erin", "frank"}
	var key auth.APIKey
	for _, name := range users {
		role := "consumer"
		if name == "alice" {
			role = "contributor"
		}
		u, err := d.storeClient.RegisterCtx(ctx, name, role)
		if err != nil {
			t.Fatalf("register %s through torn bodies: %v", name, err)
		}
		if name == "alice" {
			key = u.Key
		}
	}
	if d.storeNet.Injected("torn") == 0 {
		t.Fatal("no torn bodies injected — nothing was proven")
	}

	// Uploads through torn bodies must land exactly once each.
	const batches, perBatch = 5, 10
	for i := 0; i < batches; i++ {
		seg := streamPacket(t0.Add(time.Duration(i)*time.Hour), perBatch)
		if _, err := d.storeClient.UploadCtx(ctx, key, []*wavesegment.Segment{seg}); err != nil {
			t.Fatalf("upload %d: %v", i, err)
		}
	}
	segs, err := d.storeSvc.QueryOwn(key, &query.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if got := sumSamples(segs); got != batches*perBatch {
		t.Fatalf("store holds %d samples, uploaded %d: retried mutations were not exactly-once",
			got, batches*perBatch)
	}

	// A retried key rotation must rotate once: the key the client received
	// is the live one.
	fresh, err := d.storeClient.RotateKeyCtx(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.storeSvc.QueryOwn(fresh, &query.Query{}); err != nil {
		t.Fatalf("rotated key dead — rotation applied more than once: %v", err)
	}
}

// TestChaosBrokerOutageConvergence revokes a contributor's rules while the
// broker is unreachable. The push is lost; after the partition heals, one
// anti-entropy round's digest must find the replica behind and converge
// it, so the revoked rules are no longer served by search and no replica
// reads stale.
func TestChaosBrokerOutageConvergence(t *testing.T) {
	ctx := context.Background()
	d := deployChaos(t, nil, nil)
	alice, err := d.storeClient.RegisterCtx(ctx, "alice", "contributor")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.storeClient.SetRulesCtx(ctx, alice.Key, []byte(`[{"Action":"Allow"}]`)); err != nil {
		t.Fatal(err)
	}
	// Bob talks to the broker over a clean connection: the partition under
	// test severs the store→broker hop, not the consumer's.
	consumer := &BrokerClient{BaseURL: d.brokerClient.BaseURL}
	bob, err := consumer.RegisterConsumerCtx(ctx, "bob")
	if err != nil {
		t.Fatal(err)
	}
	found, err := consumer.SearchCtx(ctx, bob.Key, &broker.SearchQuery{Sensors: []string{"ECG"}, Reference: t0})
	if err != nil || len(found) != 1 {
		t.Fatalf("pre-outage search = %v, %v", found, err)
	}

	// Partition the broker, then revoke everything. The store accepts the
	// change instead of failing the user; the push never arrives.
	d.brokerNet.Configure(faultnet.Rule{Path: "/", Drop: 1})
	if err := d.storeClient.SetRulesCtx(ctx, alice.Key, []byte(`[]`)); err != nil {
		t.Fatalf("revocation during outage must succeed locally: %v", err)
	}
	if r := d.brokerSvc.Replicas(); len(r) != 1 || r[0].Version != 1 {
		t.Fatalf("replicas during partition = %+v, want alice still at version 1", r)
	}
	// The broker still serves the stale replica during the partition —
	// that is the window anti-entropy exists to close.
	found, err = consumer.SearchCtx(ctx, bob.Key, &broker.SearchQuery{Sensors: []string{"ECG"}, Reference: t0})
	if err != nil || len(found) != 1 {
		t.Fatalf("search during partition = %v, %v", found, err)
	}

	// Heal and reconcile.
	d.brokerNet.Configure()
	if err := d.storeSvc.AntiEntropy(); err != nil {
		t.Fatalf("anti-entropy after heal: %v", err)
	}
	if r := d.brokerSvc.Replicas(); len(r) != 1 || r[0].Version != 2 {
		t.Fatalf("replicas after anti-entropy = %+v, want alice at version 2", r)
	}
	found, err = consumer.SearchCtx(ctx, bob.Key, &broker.SearchQuery{Sensors: []string{"ECG"}, Reference: t0})
	if err != nil {
		t.Fatal(err)
	}
	if len(found) != 0 {
		t.Fatalf("revoked rules still served by search after reconnect: %v", found)
	}
	for _, r := range d.brokerSvc.Replicas() {
		if r.Stale {
			t.Fatalf("replica %s still stale after convergence: %+v", r.Name, r)
		}
	}
}

// TestChaosRegistrationWhileBrokerDown registers a contributor while
// every store→broker call answers 503. The registration must still hand
// out a working key, since the account is durable before the broker
// call; after the broker comes back, one anti-entropy digest must enter
// the contributor in the directory at the store's URL, so a consumer can
// connect through the broker and query the data.
func TestChaosRegistrationWhileBrokerDown(t *testing.T) {
	ctx := context.Background()
	bsvc := broker.New()
	brokerServer := httptest.NewServer(NewBrokerHandler(bsvc))
	t.Cleanup(brokerServer.Close)
	bnet := faultnet.New(chaosSeed, nil, faultnet.Rule{Path: "/", Status: 1, StatusCode: http.StatusServiceUnavailable})
	bc := &BrokerClient{
		BaseURL: brokerServer.URL,
		HTTP:    &http.Client{Transport: bnet, Timeout: 10 * time.Second},
		Retry:   chaosPolicy(),
	}
	// The store is named by its URL, as a deployed store is, so the
	// directory entry the digest creates is one the broker can dial.
	storeServer := httptest.NewUnstartedServer(nil)
	storeURL := "http://" + storeServer.Listener.Addr().String()
	svc, err := datastore.New(datastore.Options{Name: storeURL, Sync: bc, Directory: bc})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	storeServer.Config.Handler = NewStoreHandler(svc)
	storeServer.Start()
	t.Cleanup(storeServer.Close)
	sc := &StoreClient{BaseURL: storeURL}

	alice, err := sc.RegisterCtx(ctx, "alice", "contributor")
	if err != nil {
		t.Fatalf("registration during a broker outage: %v", err)
	}
	if alice.Key == "" {
		t.Fatal("registration during a broker outage returned no key")
	}
	if bnet.Injected("status") == 0 {
		t.Fatal("no 503 injected — the outage exercised nothing")
	}
	if err := sc.SetRulesCtx(ctx, alice.Key, []byte(`[{"Action":"Allow"}]`)); err != nil {
		t.Fatalf("rule change during a broker outage: %v", err)
	}
	seg := &wavesegment.Segment{
		Contributor: "alice", Start: t0, Interval: 100 * time.Millisecond,
		Location: home, Channels: []string{wavesegment.ChannelECG},
		Values: [][]float64{{1}, {2}, {3}},
	}
	if _, err := sc.UploadCtx(ctx, alice.Key, []*wavesegment.Segment{seg}); err != nil {
		t.Fatalf("upload with the key issued during the outage: %v", err)
	}
	if r := bsvc.Replicas(); len(r) != 0 {
		t.Fatalf("broker knows %+v during the outage", r)
	}

	// The broker comes back; one anti-entropy round registers alice.
	bnet.Configure()
	if err := svc.AntiEntropy(); err != nil {
		t.Fatalf("anti-entropy after the outage: %v", err)
	}
	consumer := &BrokerClient{BaseURL: brokerServer.URL}
	bob, err := consumer.RegisterConsumerCtx(ctx, "bob")
	if err != nil {
		t.Fatal(err)
	}
	dir, err := consumer.DirectoryCtx(ctx, bob.Key)
	if err != nil {
		t.Fatal(err)
	}
	if len(dir) != 1 || dir[0].Name != "alice" || dir[0].StoreAddr != storeURL {
		t.Fatalf("directory after anti-entropy = %+v, want alice at %s", dir, storeURL)
	}
	cred, err := consumer.ConnectCtx(ctx, bob.Key, "alice")
	if err != nil {
		t.Fatalf("connect after anti-entropy: %v", err)
	}
	if cred.StoreAddr != storeURL {
		t.Fatalf("connect points at %q, want %q", cred.StoreAddr, storeURL)
	}
	rels, err := (&StoreClient{BaseURL: cred.StoreAddr}).QueryCtx(ctx, cred.Key, &query.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) != 1 || rels[0].Segment == nil || rels[0].Segment.NumSamples() != 3 {
		t.Fatalf("query through the connected key = %+v, want the 3 uploaded samples", rels)
	}
}

// TestChaosFederationPartialFailure fans a cohort query out over twelve
// stores while every consumer→store hop suffers ~30% injected faults and
// three stores are fully partitioned. The retry policy must absorb the
// transient faults — every reachable store's data arrives complete and in
// global time order — while the partitioned stores surface as explicit
// unreachable reports, never as silent truncation.
func TestChaosFederationPartialFailure(t *testing.T) {
	ctx := context.Background()
	const (
		nStores   = 12
		nDown     = 3
		segsPerUp = 2
	)
	bsvc := broker.New()
	brokerServer := httptest.NewServer(NewBrokerHandler(bsvc))
	t.Cleanup(brokerServer.Close)
	bc := &BrokerClient{BaseURL: brokerServer.URL}

	// Per-store fault transports, keyed by store address so the engine's
	// dialer picks the right one. The first nDown contributors' stores are
	// fully partitioned; the rest run at ~30% faults.
	nets := make(map[string]*faultnet.Transport)
	var names []string
	var down []string
	for i := 0; i < nStores; i++ {
		name := string(rune('a'+i)) + "-owner"
		names = append(names, name)
		var storeURL string
		svc, err := datastore.New(datastore.Options{Sync: bc, Directory: &lazyDirectory{bc: bc, addr: &storeURL}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { svc.Close() })
		storeServer := httptest.NewServer(NewStoreHandler(svc))
		t.Cleanup(storeServer.Close)
		storeURL = storeServer.URL

		// Setup runs over a clean client; faults start at query time.
		clean := &StoreClient{BaseURL: storeURL}
		owner, err := clean.RegisterCtx(ctx, name, "contributor")
		if err != nil {
			t.Fatal(err)
		}
		if err := clean.SetRulesCtx(ctx, owner.Key, []byte(`[{"Action":"Allow"}]`)); err != nil {
			t.Fatal(err)
		}
		segs := make([]*wavesegment.Segment, segsPerUp)
		for j := range segs {
			segs[j] = streamPacket(t0.Add(time.Duration(i)*10*time.Minute+time.Duration(j)*6*time.Hour), 4)
			segs[j].Contributor = name
		}
		if _, err := clean.UploadCtx(ctx, owner.Key, segs); err != nil {
			t.Fatal(err)
		}

		if i < nDown {
			nets[storeURL] = faultnet.New(chaosSeed+int64(i), nil, faultnet.Rule{Path: "/", Drop: 1})
			down = append(down, name)
		} else {
			nets[storeURL] = faultnet.New(chaosSeed+int64(i), nil,
				faultnet.Rule{Path: "/api/", Drop: 0.2, Status: 0.1, StatusCode: 503, RetryAfter: time.Millisecond})
		}
	}

	bob, err := bc.RegisterConsumerCtx(ctx, "Bob")
	if err != nil {
		t.Fatal(err)
	}
	eng := NewFederationDialer(bc, bob.Key, federation.Options{PerStoreTimeout: 5 * time.Second},
		func(addr string) federation.Store {
			return &StoreClient{
				BaseURL: addr,
				HTTP:    &http.Client{Transport: nets[addr], Timeout: 5 * time.Second},
				Retry:   chaosPolicy(),
			}
		})

	res, err := eng.CohortQuery(ctx, &federation.Request{
		Cohort: federation.Cohort{Contributors: names},
	})
	if err != nil {
		t.Fatal(err)
	}
	var injected uint64
	for _, n := range nets {
		injected += n.TotalInjected()
	}
	if injected == 0 {
		t.Fatal("no faults injected — the chaos run exercised nothing")
	}

	// Every reachable store's data, complete and globally ordered.
	wantReleases := (nStores - nDown) * segsPerUp
	if len(res.Releases) != wantReleases {
		t.Fatalf("got %d releases, want all %d from reachable stores", len(res.Releases), wantReleases)
	}
	for i := 1; i < len(res.Releases); i++ {
		if res.Releases[i].Start.Before(res.Releases[i-1].Start) {
			t.Fatalf("release %d breaks global time order", i)
		}
	}

	// The partitioned stores are explicit failures, not silent gaps.
	if !res.Partial {
		t.Fatal("partitioned stores must flag the result partial")
	}
	downSet := map[string]bool{}
	for _, n := range down {
		downSet[n] = true
	}
	if len(res.Reports) != nStores {
		t.Fatalf("%d reports, want one per cohort member (%d)", len(res.Reports), nStores)
	}
	for _, rep := range res.Reports {
		if downSet[rep.Contributor] {
			if rep.Outcome == federation.OutcomeOK || !rep.Missing || rep.Error == "" {
				t.Errorf("down store %s report = %+v, want explicit failure", rep.Contributor, rep)
			}
		} else {
			if rep.Outcome != federation.OutcomeOK {
				t.Errorf("reachable store %s outcome = %s (%s) — retries did not absorb 30%% faults",
					rep.Contributor, rep.Outcome, rep.Error)
			}
			if rep.Releases != segsPerUp {
				t.Errorf("reachable store %s delivered %d releases, want %d", rep.Contributor, rep.Releases, segsPerUp)
			}
		}
	}
	// A resume cursor survives the partial page so the consumer can pick up
	// after the partition heals.
	if res.Cursor == "" {
		t.Error("partial result must carry a resume cursor")
	}
}

// TestChaosStreamReconnect drops and tears ~40% of a subscriber's
// long-poll traffic. Cursor-based redelivery makes retried polls
// all-or-nothing, so the subscriber must see every event exactly once in
// order despite the faults.
func TestChaosStreamReconnect(t *testing.T) {
	ctx := context.Background()
	d := deployChaos(t, []faultnet.Rule{
		{Path: "/api/stream/", Drop: 0.25, Torn: 0.15},
	}, nil)
	clean := &StoreClient{BaseURL: d.storeClient.BaseURL} // producer side, no faults
	alice, err := clean.RegisterCtx(ctx, "alice", "contributor")
	if err != nil {
		t.Fatal(err)
	}
	if err := clean.SetRulesCtx(ctx, alice.Key, []byte(`[{"Action":"Allow"}]`)); err != nil {
		t.Fatal(err)
	}
	bob, err := clean.RegisterCtx(ctx, "bob", "consumer")
	if err != nil {
		t.Fatal(err)
	}
	info, err := d.storeClient.SubscribeCtx(ctx, bob.Key, "alice", nil)
	if err != nil {
		t.Fatal(err)
	}

	const wantEvents = 8
	for i := 0; i < wantEvents; i++ {
		if _, err := clean.UploadCtx(ctx, alice.Key, []*wavesegment.Segment{streamPacket(t0.Add(time.Duration(i)*time.Hour), 4)}); err != nil {
			t.Fatal(err)
		}
	}

	seen := map[uint64]int{}
	cursor := info.Cursor
	deadline := time.Now().Add(30 * time.Second)
	for len(seen) < wantEvents && time.Now().Before(deadline) {
		b, err := d.storeClient.NextCtx(ctx, bob.Key, info.ID, cursor, 2*time.Second)
		if err != nil {
			// Every attempt of this poll failed; the cursor is untouched,
			// so the next poll resumes without loss.
			continue
		}
		for _, ev := range b.Events {
			if ev.Kind == stream.KindData {
				seen[ev.Seq]++
			}
		}
		cursor = b.Cursor
	}
	if d.storeNet.TotalInjected() == 0 {
		t.Fatal("no faults injected on the stream path")
	}
	if len(seen) != wantEvents {
		t.Fatalf("subscriber saw %d/%d events before deadline: %v", len(seen), wantEvents, seen)
	}
	for seq, n := range seen {
		if n != 1 {
			t.Fatalf("event %d delivered %d times — cursor redelivery duplicated data", seq, n)
		}
	}
}
