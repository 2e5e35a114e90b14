package httpapi

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sensorsafe/internal/broker"
	"sensorsafe/internal/datastore"
	"sensorsafe/internal/geo"
	"sensorsafe/internal/phone"
	"sensorsafe/internal/query"
	"sensorsafe/internal/rules"
	"sensorsafe/internal/sensors"
	"sensorsafe/internal/timeutil"
	"sensorsafe/internal/wavesegment"
)

// Compile-time wiring assertions: the HTTP clients must satisfy the
// interfaces the in-process services do.
var (
	_ phone.Store          = (*StoreClient)(nil)
	_ broker.StoreConn     = (*StoreClient)(nil)
	_ datastore.SyncTarget = (*BrokerClient)(nil)
	_ datastore.Directory  = (*BrokerClient)(nil)
)

var (
	t0   = time.Date(2011, 2, 16, 8, 0, 0, 0, time.UTC)
	home = geo.Point{Lat: 34.0250, Lon: -118.4950}
)

// testDeployment spins up a broker server and one store server wired to it
// over real HTTP.
type testDeployment struct {
	brokerSvc    *broker.Service
	brokerClient *BrokerClient
	storeSvc     *datastore.Service
	storeClient  *StoreClient
}

func deploy(t *testing.T) *testDeployment {
	t.Helper()
	bsvc := broker.New()
	brokerServer := httptest.NewServer(NewBrokerHandler(bsvc))
	t.Cleanup(brokerServer.Close)
	bc := &BrokerClient{BaseURL: brokerServer.URL}

	// The store reaches the broker through the HTTP client (sync +
	// directory), like a real multi-host deployment.
	var storeURL string
	svc, err := datastore.New(datastore.Options{Sync: bc, Directory: &lazyDirectory{bc: bc, addr: &storeURL}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	storeServer := httptest.NewServer(NewStoreHandler(svc))
	t.Cleanup(storeServer.Close)
	storeURL = storeServer.URL

	sc := &StoreClient{BaseURL: storeServer.URL}
	bsvc.RegisterStore(sc)
	return &testDeployment{brokerSvc: bsvc, brokerClient: bc, storeSvc: svc, storeClient: sc}
}

// lazyDirectory defers the store address until the test server is up.
type lazyDirectory struct {
	bc   *BrokerClient
	addr *string
}

func (d *lazyDirectory) RegisterContributorCtx(ctx context.Context, name, _ string) error {
	return d.bc.RegisterContributorCtx(ctx, name, *d.addr)
}

func TestEndToEndOverHTTP(t *testing.T) {
	ctx := context.Background()
	d := deploy(t)

	// Alice registers on her store; the store registers her on the broker.
	alice, err := d.storeClient.RegisterCtx(ctx, "alice", "contributor")
	if err != nil {
		t.Fatal(err)
	}
	if alice.Key == "" {
		t.Fatal("no key")
	}

	// Alice labels her campus and sets Fig. 4-style rules.
	rect, _ := geo.NewRect(geo.Point{Lat: 34.02, Lon: -118.50}, geo.Point{Lat: 34.03, Lon: -118.49})
	if err := d.storeClient.DefinePlaceCtx(ctx, alice.Key, "home", geo.Region{Rect: rect}); err != nil {
		t.Fatal(err)
	}
	ruleJSON := `[
	  {"Consumer": ["Bob"], "Action": "Allow"},
	  {"Consumer": ["Bob"], "Context": ["Drive"],
	   "Action": {"Abstraction": {"Stress": "NotShared"}}}
	]`
	if err := d.storeClient.SetRulesCtx(ctx, alice.Key, []byte(ruleJSON)); err != nil {
		t.Fatal(err)
	}

	// Her phone runs a scripted morning over the HTTP client.
	p := &phone.Phone{Contributor: "alice", Key: alice.Key, Store: d.storeClient}
	rep, err := p.RunCtx(ctx, &sensors.Scenario{
		Start: t0, Origin: home, Seed: 5,
		Phases: []sensors.Phase{
			{Duration: 2 * time.Minute, Activity: rules.CtxStill, Stressed: true},
			{Duration: 2 * time.Minute, Activity: rules.CtxDrive, Stressed: true, Heading: 80},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PacketsUploaded == 0 || rep.RecordsWritten == 0 {
		t.Fatalf("phone report = %+v", rep)
	}

	// Bob registers on the broker, finds Alice, connects, and queries her
	// store directly.
	bob, err := d.brokerClient.RegisterConsumerCtx(ctx, "Bob")
	if err != nil {
		t.Fatal(err)
	}
	dir, err := d.brokerClient.DirectoryCtx(ctx, bob.Key)
	if err != nil {
		t.Fatal(err)
	}
	if len(dir) != 1 || dir[0].Name != "alice" || dir[0].RuleCount != 2 {
		t.Fatalf("directory = %+v", dir)
	}
	cred, err := d.brokerClient.ConnectCtx(ctx, bob.Key, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if cred.StoreAddr != d.storeClient.BaseURL {
		t.Errorf("credential addr = %q", cred.StoreAddr)
	}

	rels, err := d.storeClient.QueryCtx(ctx, cred.Key, &query.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) == 0 {
		t.Fatal("Bob should receive releases")
	}
	// While driving, stress must be withheld and ECG/Respiration blocked.
	var sawDrive, sawStill bool
	for _, rel := range rels {
		for _, c := range rel.Contexts {
			if c.Context == rules.CtxDrive {
				sawDrive = true
				if rel.Segment != nil && (rel.Segment.HasChannel(wavesegment.ChannelECG) ||
					rel.Segment.HasChannel(wavesegment.ChannelRespiration)) {
					t.Error("stress-bearing channels leaked while driving")
				}
			}
			if c.Context == rules.CtxStressed {
				sawStill = true
			}
		}
	}
	if !sawDrive {
		t.Error("no driving releases seen")
	}
	if !sawStill {
		t.Error("stress label should flow outside driving")
	}

	// Credentials are vaulted.
	creds, err := d.brokerClient.CredentialsCtx(ctx, bob.Key)
	if err != nil || len(creds) != 1 || creds[0].Key != cred.Key {
		t.Errorf("credentials = %v, %v", creds, err)
	}
}

func TestBrokerSearchOverHTTP(t *testing.T) {
	ctx := context.Background()
	d := deploy(t)
	alice, err := d.storeClient.RegisterCtx(ctx, "alice", "contributor")
	if err != nil {
		t.Fatal(err)
	}
	rect, _ := geo.NewRect(geo.Point{Lat: 34.05, Lon: -118.46}, geo.Point{Lat: 34.08, Lon: -118.43})
	if err := d.storeClient.DefinePlaceCtx(ctx, alice.Key, "work", geo.Region{Rect: rect}); err != nil {
		t.Fatal(err)
	}
	if err := d.storeClient.SetRulesCtx(ctx, alice.Key, []byte(`[{"Action":"Allow"}]`)); err != nil {
		t.Fatal(err)
	}

	bob, err := d.brokerClient.RegisterConsumerCtx(ctx, "Bob")
	if err != nil {
		t.Fatal(err)
	}
	rep, _ := timeutil.ParseRepeated([]string{"Mon", "Tue", "Wed", "Thu", "Fri"}, []string{"9:00am", "6:00pm"})
	got, err := d.brokerClient.SearchCtx(ctx, bob.Key, &broker.SearchQuery{
		Sensors:       []string{"ECG", "Respiration"},
		LocationLabel: "work",
		RepeatTime:    rep,
		Reference:     t0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "alice" {
		t.Fatalf("search = %v", got)
	}

	// Lists and studies over the wire.
	if err := d.brokerClient.SaveListCtx(ctx, bob.Key, "myStudy", got); err != nil {
		t.Fatal(err)
	}
	members, err := d.brokerClient.ListCtx(ctx, bob.Key, "myStudy")
	if err != nil || len(members) != 1 {
		t.Fatalf("list = %v, %v", members, err)
	}
	if err := d.brokerClient.CreateStudyCtx(ctx, "S"); err != nil {
		t.Fatal(err)
	}
	if err := d.brokerClient.JoinStudyCtx(ctx, bob.Key, "S"); err != nil {
		t.Fatal(err)
	}
	ms, err := d.brokerClient.StudyMembersCtx(ctx, "S")
	if err != nil || len(ms) != 1 || ms[0] != "bob" {
		t.Fatalf("study members = %v, %v", ms, err)
	}
}

func TestQueryTextOverHTTP(t *testing.T) {
	ctx := context.Background()
	d := deploy(t)
	alice, _ := d.storeClient.RegisterCtx(ctx, "alice", "contributor")
	if err := d.storeClient.SetRulesCtx(ctx, alice.Key, []byte(`[{"Action":"Allow"}]`)); err != nil {
		t.Fatal(err)
	}
	seg := &wavesegment.Segment{
		Contributor: "alice", Start: t0, Interval: 100 * time.Millisecond,
		Location: home, Channels: []string{wavesegment.ChannelECG},
		Values: [][]float64{{1}, {2}, {3}},
	}
	if _, err := d.storeClient.UploadCtx(ctx, alice.Key, []*wavesegment.Segment{seg}); err != nil {
		t.Fatal(err)
	}
	bob, _ := d.storeClient.RegisterCtx(ctx, "bob", "consumer")
	rels, err := d.storeClient.QueryTextCtx(ctx, bob.Key, "channels(ECG) limit(10)")
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) != 1 || rels[0].Segment.NumSamples() != 3 {
		t.Fatalf("releases = %+v", rels)
	}
	if _, err := d.storeClient.QueryTextCtx(ctx, bob.Key, "bogus(("); err == nil {
		t.Error("bad query text should error")
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	ctx := context.Background()
	d := deploy(t)
	// Unauthorized.
	if _, err := d.storeClient.QueryCtx(ctx, "bogus", &query.Query{}); err == nil || !strings.Contains(err.Error(), "401") {
		t.Errorf("bad key error = %v", err)
	}
	// Conflict on duplicate registration.
	if _, err := d.storeClient.RegisterCtx(ctx, "dup", "consumer"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.storeClient.RegisterCtx(ctx, "dup", "consumer"); err == nil || !strings.Contains(err.Error(), "409") {
		t.Errorf("duplicate error = %v", err)
	}
	// Unknown role.
	if _, err := d.storeClient.RegisterCtx(ctx, "x", "wizard"); err == nil {
		t.Error("unknown role should error")
	}
	// Not found.
	bob, _ := d.brokerClient.RegisterConsumerCtx(ctx, "bob")
	if _, err := d.brokerClient.ConnectCtx(ctx, bob.Key, "nobody"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("unknown contributor error = %v", err)
	}
	// Forbidden: consumer uploading.
	bobStore, _ := d.storeClient.RegisterCtx(ctx, "bobstore", "consumer")
	seg := &wavesegment.Segment{
		Contributor: "bobstore", Start: t0, Interval: time.Second,
		Channels: []string{"ECG"}, Values: [][]float64{{1}},
	}
	if _, err := d.storeClient.UploadCtx(ctx, bobStore.Key, []*wavesegment.Segment{seg}); err == nil || !strings.Contains(err.Error(), "403") {
		t.Errorf("forbidden error = %v", err)
	}
}

func TestMethodNotAllowedAndPages(t *testing.T) {
	d := deploy(t)
	resp, err := http.Get(d.storeClient.BaseURL + "/api/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET on POST endpoint: HTTP %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
		t.Errorf("Allow header = %q, want POST", allow)
	}
	for _, url := range []string{d.storeClient.BaseURL, d.brokerClient.BaseURL} {
		resp, err := http.Get(url + "/")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("admin page %s: HTTP %d", url, resp.StatusCode)
		}
		resp, err = http.Get(url + "/nonexistent")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("bogus path %s: HTTP %d", url, resp.StatusCode)
		}
	}
}

func TestHealthEndpoints(t *testing.T) {
	ctx := context.Background()
	d := deploy(t)
	if _, err := d.storeClient.RegisterCtx(ctx, "alice", "contributor"); err != nil {
		t.Fatal(err)
	}

	sh, err := d.storeClient.HealthCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sh.Status != "ok" {
		t.Errorf("store health status = %q", sh.Status)
	}
	if sh.UptimeS < 0 {
		t.Errorf("store uptime = %v", sh.UptimeS)
	}
	if sh.Users != 1 {
		t.Errorf("store health users = %d, want 1", sh.Users)
	}

	bh, err := d.brokerClient.HealthCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if bh.Status != "ok" {
		t.Errorf("broker health status = %q", bh.Status)
	}
	// Alice's store registration propagated to the broker directory.
	if bh.Contributors != 1 {
		t.Errorf("broker health contributors = %d, want 1", bh.Contributors)
	}
}

func TestRuleAwarePhoneOverHTTP(t *testing.T) {
	ctx := context.Background()
	d := deploy(t)
	alice, _ := d.storeClient.RegisterCtx(ctx, "alice", "contributor")
	if err := d.storeClient.SetRulesCtx(ctx, alice.Key, []byte(`[
	  {"Action":"Allow"},
	  {"Context":["Drive"],"Action":"Deny"}
	]`)); err != nil {
		t.Fatal(err)
	}
	p := &phone.Phone{Contributor: "alice", Key: alice.Key, Store: d.storeClient, RuleAware: true}
	rep, err := p.RunCtx(ctx, &sensors.Scenario{
		Start: t0, Origin: home, Seed: 5,
		Phases: []sensors.Phase{
			{Duration: 2 * time.Minute, Activity: rules.CtxStill},
			{Duration: 2 * time.Minute, Activity: rules.CtxDrive, Heading: 90},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PacketsDiscarded == 0 || rep.PacketsUploaded == 0 {
		t.Fatalf("report = %+v", rep)
	}
}

// TestRulesForIsOneRequest: the phone gets its policy in one request,
// so a place defined right after that request cannot pair one version's
// rules with the next version's places.
func TestRulesForIsOneRequest(t *testing.T) {
	ctx := context.Background()
	svc, err := datastore.New(datastore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	alice, err := svc.RegisterContributor("alice")
	if err != nil {
		t.Fatal(err)
	}
	homeRect, _ := geo.NewRect(geo.Point{Lat: 34.02, Lon: -118.50}, geo.Point{Lat: 34.03, Lon: -118.49})
	if err := svc.DefinePlace(alice.Key, "home", geo.Region{Rect: homeRect}); err != nil {
		t.Fatal(err)
	}
	if err := svc.SetRules(alice.Key, []byte(`[{"LocationLabel":["home"],"Action":"Deny"},{"Action":"Allow"}]`)); err != nil {
		t.Fatal(err)
	}

	// Count requests, and define a second place right after the first
	// one is answered: a client that fetched places separately would see
	// version 3's places beside version 2's rules.
	var calls []string
	h := NewStoreHandler(svc)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		calls = append(calls, r.URL.Path)
		if len(calls) == 1 {
			if err := svc.DefinePlace(alice.Key, "work", geo.Region{Rect: homeRect}); err != nil {
				t.Error(err)
			}
		}
	}))
	t.Cleanup(srv.Close)
	sc := &StoreClient{BaseURL: srv.URL}

	eng, err := sc.RulesForCtx(ctx, alice.Key)
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 1 || calls[0] != "/api/rules/get" {
		t.Fatalf("RulesForCtx made requests %v, want one /api/rules/get", calls)
	}
	if got := eng.Gazetteer().Labels(); len(got) != 1 || got[0] != "home" {
		t.Errorf("compiled places = %v, want version 2's [home]", got)
	}
	st, err := sc.PolicyCtx(ctx, alice.Key)
	if err != nil {
		t.Fatal(err)
	}
	if st.RuleVersion != 3 || len(st.Places) != 2 {
		t.Errorf("policy after the late place = version %d with %d places, want version 3 with 2", st.RuleVersion, len(st.Places))
	}
}

// TestCloseDoesNotWaitOutHungBroker: the store's anti-entropy calls carry
// its service context, so Close cancels a round stuck on a broker that
// never answers instead of waiting out the client's timeouts and retries.
func TestCloseDoesNotWaitOutHungBroker(t *testing.T) {
	release := make(chan struct{})
	reached := make(chan struct{}, 1)
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case reached <- struct{}{}:
		default:
		}
		<-release
	}))
	t.Cleanup(hung.Close)
	t.Cleanup(func() { close(release) })

	svc, err := datastore.New(datastore.Options{Sync: &BrokerClient{BaseURL: hung.URL}})
	if err != nil {
		t.Fatal(err)
	}
	round := make(chan error, 1)
	go func() { round <- svc.AntiEntropy() }()
	select {
	case <-reached:
	case <-time.After(5 * time.Second):
		t.Fatal("no anti-entropy round reached the broker")
	}

	closed := make(chan error, 1)
	go func() { closed <- svc.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close is waiting on the hung broker")
	}
	select {
	case err := <-round:
		if err == nil {
			t.Error("the round cut off by Close returned no error")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the anti-entropy round outlived Close")
	}
}

// TestParseRetryAfterSaturates: a Retry-After header is untrusted, and
// a seconds value too large for a time.Duration must not wrap around.
func TestParseRetryAfterSaturates(t *testing.T) {
	cases := map[string]time.Duration{
		"":                    0,
		"2":                   2 * time.Second,
		"-1":                  0,
		"soon":                0,
		"9223372036854775807": time.Duration(1<<63-1) / time.Second * time.Second,
	}
	for v, want := range cases {
		h := http.Header{}
		if v != "" {
			h.Set("Retry-After", v)
		}
		if got := parseRetryAfter(h); got != want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", v, got, want)
		}
	}
}
