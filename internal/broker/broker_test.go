package broker

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"sensorsafe/internal/auth"
	"sensorsafe/internal/geo"
	"sensorsafe/internal/rules"
	"sensorsafe/internal/timeutil"
)

// fakeStore implements StoreConn in memory.
type fakeStore struct {
	addr       string
	provisions []string
	fail       bool
}

func (f *fakeStore) Addr() string { return f.addr }

func (f *fakeStore) ProvisionConsumer(_ context.Context, name string) (auth.APIKey, error) {
	if f.fail {
		return "", errors.New("store down")
	}
	f.provisions = append(f.provisions, name)
	return auth.APIKey(fmt.Sprintf("key-%s-%s", f.addr, name)), nil
}

func workPlaces(t *testing.T) []geo.Region {
	t.Helper()
	rect, err := geo.NewRect(geo.Point{Lat: 34.05, Lon: -118.46}, geo.Point{Lat: 34.08, Lon: -118.43})
	if err != nil {
		t.Fatal(err)
	}
	return []geo.Region{{Label: "work", Rect: rect}}
}

func newBrokerWith(t *testing.T, contributors map[string]string) (*Service, auth.User) {
	t.Helper()
	ctx := context.Background()
	b := New()
	for name, ruleJSON := range contributors {
		if err := b.RegisterContributor(ctx, name, "store-"+name); err != nil {
			t.Fatal(err)
		}
		if err := b.SyncRules(ctx, name, 1, []byte(ruleJSON), workPlaces(t)); err != nil {
			t.Fatal(err)
		}
	}
	bob, err := b.RegisterConsumer("Bob")
	if err != nil {
		t.Fatal(err)
	}
	return b, bob
}

func TestRegisterAndDirectory(t *testing.T) {
	ctx := context.Background()
	b, bob := newBrokerWith(t, map[string]string{
		"alice": `[{"Action":"Allow"}]`,
		"carol": `[{"Action":"Deny"}]`,
	})
	dir, err := b.Directory(bob.Key)
	if err != nil {
		t.Fatal(err)
	}
	if len(dir) != 2 || dir[0].Name != "alice" || dir[1].Name != "carol" {
		t.Fatalf("directory = %+v", dir)
	}
	if dir[0].StoreAddr != "store-alice" || dir[0].RuleCount != 1 {
		t.Errorf("entry = %+v", dir[0])
	}
	if _, err := b.Directory("bogus"); err == nil {
		t.Error("bad key should fail")
	}
	if b.ContributorCount() != 2 {
		t.Errorf("count = %d", b.ContributorCount())
	}
	if err := b.RegisterContributor(ctx, "", "x"); err == nil {
		t.Error("empty contributor name should fail")
	}
}

func TestSyncRulesValidation(t *testing.T) {
	ctx := context.Background()
	b := New()
	if err := b.SyncRules(ctx, "alice", 1, []byte(`[{"Action":"Explode"}]`), nil); err == nil {
		t.Error("bad rule replica should be rejected")
	}
	if err := b.SyncRules(ctx, "alice", 1, []byte(`[{"Action":"Allow"}]`), []geo.Region{{Label: "x"}}); err == nil {
		t.Error("bad place replica should be rejected")
	}
	if err := b.SyncRules(ctx, "alice", 1, nil, nil); err == nil {
		t.Error("a replica without a rule set should be rejected")
	}
	if b.ContributorCount() != 0 {
		t.Error("rejected replicas should not register the contributor")
	}
	// Implicit registration through sync.
	if err := b.SyncRules(ctx, "dave", 1, []byte(`[{"Action":"Allow"}]`), nil); err != nil {
		t.Fatal(err)
	}
	if b.ContributorCount() != 1 {
		t.Error("sync should register unknown contributors")
	}
	// Re-registration fills in the store address without losing rules.
	if err := b.RegisterContributor(ctx, "dave", "store-dave"); err != nil {
		t.Fatal(err)
	}
	bob, _ := b.RegisterConsumer("bob")
	dir, _ := b.Directory(bob.Key)
	if len(dir) != 1 || dir[0].StoreAddr != "store-dave" || dir[0].RuleCount != 1 {
		t.Errorf("directory after re-register = %+v", dir)
	}
}

func TestConnectProvisionsOnceAndVaults(t *testing.T) {
	b, bob := newBrokerWith(t, map[string]string{"alice": `[{"Action":"Allow"}]`})
	store := &fakeStore{addr: "store-alice"}
	b.RegisterStore(store)

	cred, err := b.Connect(context.Background(), bob.Key, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if cred.StoreAddr != "store-alice" || cred.Key == "" {
		t.Fatalf("credential = %+v", cred)
	}
	// Second connect reuses the vaulted key without re-provisioning.
	cred2, err := b.Connect(context.Background(), bob.Key, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if cred2.Key != cred.Key {
		t.Error("vaulted key should be reused")
	}
	if len(store.provisions) != 1 {
		t.Errorf("provisions = %v, want 1", store.provisions)
	}

	creds, err := b.Credentials(bob.Key)
	if err != nil || len(creds) != 1 || creds[0].Key != cred.Key {
		t.Errorf("credentials = %v, %v", creds, err)
	}

	if _, err := b.Connect(context.Background(), bob.Key, "nobody"); !errors.Is(err, ErrUnknownContributor) {
		t.Errorf("unknown contributor: %v", err)
	}
}

func TestConnectStoreFailures(t *testing.T) {
	b, bob := newBrokerWith(t, map[string]string{"alice": `[{"Action":"Allow"}]`})
	// No store connection registered.
	if _, err := b.Connect(context.Background(), bob.Key, "alice"); !errors.Is(err, ErrUnknownStore) {
		t.Errorf("missing store: %v", err)
	}
	b.RegisterStore(&fakeStore{addr: "store-alice", fail: true})
	if _, err := b.Connect(context.Background(), bob.Key, "alice"); err == nil {
		t.Error("store failure should propagate")
	}
}

func TestSaveAndGetList(t *testing.T) {
	b, bob := newBrokerWith(t, nil)
	if err := b.SaveList(bob.Key, "study-A", []string{"alice", "carol"}); err != nil {
		t.Fatal(err)
	}
	got, err := b.List(bob.Key, "Study-A")
	if err != nil || len(got) != 2 {
		t.Fatalf("list = %v, %v", got, err)
	}
	if _, err := b.List(bob.Key, "nope"); !errors.Is(err, ErrUnknownList) {
		t.Errorf("unknown list: %v", err)
	}
	if err := b.SaveList(bob.Key, " ", nil); err == nil {
		t.Error("empty list name should fail")
	}
	// Returned list is a copy.
	got[0] = "mallory"
	again, _ := b.List(bob.Key, "study-A")
	if again[0] != "alice" {
		t.Error("List must return a copy")
	}
}

func TestStudies(t *testing.T) {
	b, bob := newBrokerWith(t, nil)
	if err := b.JoinStudy(bob.Key, "ghost"); !errors.Is(err, ErrUnknownStudy) {
		t.Errorf("unknown study: %v", err)
	}
	if err := b.CreateStudy("StressStudy"); err != nil {
		t.Fatal(err)
	}
	if err := b.CreateStudy("StressStudy"); err != nil {
		t.Errorf("idempotent create: %v", err)
	}
	if err := b.JoinStudy(bob.Key, "StressStudy"); err != nil {
		t.Fatal(err)
	}
	if err := b.JoinStudy(bob.Key, "StressStudy"); err != nil {
		t.Errorf("re-join: %v", err)
	}
	members, err := b.StudyMembers("stressstudy")
	if err != nil || len(members) != 1 || members[0] != "bob" {
		t.Errorf("members = %v, %v", members, err)
	}
	if err := b.CreateStudy(""); err == nil {
		t.Error("empty study name should fail")
	}
}

// Search tests. Reference instant: Wednesday 2011-02-16 10:00 UTC.
var ref = time.Date(2011, 2, 16, 10, 0, 0, 0, time.UTC)

func TestSearchBySensors(t *testing.T) {
	ctx := context.Background()
	// The paper's example: find contributors who share ECG and respiration
	// at "work" on weekday business hours.
	b, bob := newBrokerWith(t, map[string]string{
		// alice shares everything with anyone.
		"alice": `[{"Action":"Allow"}]`,
		// carol shares only accelerometer.
		"carol": `[{"Sensor":["Accelerometer"],"Action":"Allow"}]`,
		// dave shares all except stress at work — the closure blocks
		// ECG/Respiration there.
		"dave": `[{"Action":"Allow"},
		          {"LocationLabel":["work"],"Action":{"Abstraction":{"Stress":"NotShared"}}}]`,
	})
	rep, _ := timeutil.ParseRepeated([]string{"Mon", "Tue", "Wed", "Thu", "Fri"}, []string{"9:00am", "6:00pm"})
	got, err := b.SearchCtx(ctx, bob.Key, &SearchQuery{
		Sensors:       []string{"ECG", "Respiration"},
		LocationLabel: "work",
		RepeatTime:    rep,
		Reference:     ref,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "alice" {
		t.Fatalf("search = %v, want [alice]", got)
	}
}

// TestSearchAmongMixedRuleSets runs the paper's §5.2 example search over a
// directory of nine contributors in which every contributor also holds
// consumer-scoped rules of each kind (allow, abstract, deny, sensor-scoped
// allow) for other consumers. Every third contributor shares everything; the
// rest hide stress at work, which the closure turns into withheld
// ECG/Respiration.
func TestSearchAmongMixedRuleSets(t *testing.T) {
	if got := searchMixedRuleSets(t, 9); fmt.Sprint(got) != "[p00000 p00003 p00006]" {
		t.Errorf("9 contributors: search = %v, want [p00000 p00003 p00006]", got)
	}
}

// TestSearchAmongSixMixedRuleSets is the same search over six contributors:
// only contributors 0 and 3 match.
func TestSearchAmongSixMixedRuleSets(t *testing.T) {
	if got := searchMixedRuleSets(t, 6); fmt.Sprint(got) != "[p00000 p00003]" {
		t.Errorf("6 contributors: search = %v, want [p00000 p00003]", got)
	}
}

// searchMixedRuleSets builds the mixed-rule directory of n contributors and
// returns who matches the §5.2 search.
func searchMixedRuleSets(t *testing.T, n int) []string {
	t.Helper()
	ctx := context.Background()
	const noise = `
	  {"Consumer":["consumer-0"],"Action":"Allow"},
	  {"Consumer":["consumer-1"],"RepeatTime":{"Day":["Mon","Tue","Wed","Thu","Fri"],"HourMin":["9:00am","6:00pm"]},
	   "Action":{"Abstraction":{"Stress":"Stressed/Not Stressed"}}},
	  {"Consumer":["consumer-2"],"Context":["Drive"],"Action":"Deny"},
	  {"Consumer":["consumer-3"],"LocationLabel":["work"],"Sensor":["Accelerometer"],"Action":"Allow"},
	  {"Action":"Allow"}`
	contributors := make(map[string]string, n)
	for i := 0; i < n; i++ {
		rs := noise
		if i%3 != 0 {
			rs += `,{"LocationLabel":["work"],"Action":{"Abstraction":{"Stress":"NotShared"}}}`
		}
		contributors[fmt.Sprintf("p%05d", i)] = "[" + rs + "]"
	}
	b, bob := newBrokerWith(t, contributors)
	rep, _ := timeutil.ParseRepeated([]string{"Mon", "Tue", "Wed", "Thu", "Fri"}, []string{"9:00am", "6:00pm"})
	got, err := b.SearchCtx(ctx, bob.Key, &SearchQuery{
		Sensors:       []string{"ECG", "Respiration"},
		LocationLabel: "work",
		RepeatTime:    rep,
		Reference:     time.Date(2011, 2, 16, 8, 0, 0, 0, time.UTC),
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestSearchByContextLevel(t *testing.T) {
	ctx := context.Background()
	b, bob := newBrokerWith(t, map[string]string{
		"alice": `[{"Action":"Allow"}]`,
		"erin":  `[{"Action":{"Abstraction":{"Stress":"Stressed/Not Stressed"}}}]`,
		"frank": `[{"Action":{"Abstraction":{"Stress":"NotShared"}}}]`,
	})
	// Binary stress suffices: alice (raw) and erin (binary) match.
	got, err := b.SearchCtx(ctx, bob.Key, &SearchQuery{
		Contexts:  map[rules.Category]rules.Level{rules.CategoryStress: rules.LevelBinary},
		Reference: ref,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "alice" || got[1] != "erin" {
		t.Fatalf("search = %v, want [alice erin]", got)
	}
	// Raw stress required: only alice.
	got, _ = b.SearchCtx(ctx, bob.Key, &SearchQuery{
		Contexts:  map[rules.Category]rules.Level{rules.CategoryStress: rules.LevelRaw},
		Reference: ref,
	})
	if len(got) != 1 || got[0] != "alice" {
		t.Fatalf("raw search = %v, want [alice]", got)
	}
}

func TestSearchWithActiveContexts(t *testing.T) {
	ctx := context.Background()
	// Bob studies stress *while driving* (§6). Alice denies stress while
	// driving, grace allows everything: only grace matches.
	b, bob := newBrokerWith(t, map[string]string{
		"alice": `[{"Action":"Allow"},
		           {"Context":["Drive"],"Action":{"Abstraction":{"Stress":"NotShared"}}}]`,
		"grace": `[{"Action":"Allow"}]`,
	})
	got, err := b.SearchCtx(ctx, bob.Key, &SearchQuery{
		Sensors:        []string{"ECG"},
		ActiveContexts: []string{rules.CtxDrive},
		Reference:      ref,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "grace" {
		t.Fatalf("search = %v, want [grace]", got)
	}
	// Without the driving context, both match.
	got, _ = b.SearchCtx(ctx, bob.Key, &SearchQuery{Sensors: []string{"ECG"}, Reference: ref})
	if len(got) != 2 {
		t.Fatalf("search = %v, want both", got)
	}
}

func TestSearchConsumerSpecificRules(t *testing.T) {
	ctx := context.Background()
	b, bob := newBrokerWith(t, map[string]string{
		"alice": `[{"Consumer":["Bob"],"Action":"Allow"}]`,
		"carol": `[{"Consumer":["Eve"],"Action":"Allow"}]`,
	})
	got, err := b.SearchCtx(ctx, bob.Key, &SearchQuery{Sensors: []string{"ECG"}, Reference: ref})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "alice" {
		t.Fatalf("search = %v, want [alice]", got)
	}
}

func TestSearchGroupRulesViaStudy(t *testing.T) {
	ctx := context.Background()
	b, bob := newBrokerWith(t, map[string]string{
		"alice": `[{"Group":["StressStudy"],"Action":"Allow"}]`,
	})
	got, _ := b.SearchCtx(ctx, bob.Key, &SearchQuery{Sensors: []string{"ECG"}, Reference: ref})
	if len(got) != 0 {
		t.Fatalf("non-member search = %v", got)
	}
	if err := b.CreateStudy("StressStudy"); err != nil {
		t.Fatal(err)
	}
	if err := b.JoinStudy(bob.Key, "StressStudy"); err != nil {
		t.Fatal(err)
	}
	got, _ = b.SearchCtx(ctx, bob.Key, &SearchQuery{Sensors: []string{"ECG"}, Reference: ref})
	if len(got) != 1 || got[0] != "alice" {
		t.Fatalf("member search = %v", got)
	}
}

func TestSearchMissingLabelNoMatch(t *testing.T) {
	ctx := context.Background()
	b, bob := newBrokerWith(t, map[string]string{"alice": `[{"Action":"Allow"}]`})
	got, err := b.SearchCtx(ctx, bob.Key, &SearchQuery{LocationLabel: "dungeon", Reference: ref})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("search at unknown label = %v", got)
	}
}

func TestSearchTimeRange(t *testing.T) {
	ctx := context.Background()
	feb, _ := timeutil.NewRange(
		time.Date(2011, 2, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2011, 3, 1, 0, 0, 0, 0, time.UTC))
	b, bob := newBrokerWith(t, map[string]string{
		// alice shares only during February 2011.
		"alice": `[{"TimeRange":{"Start":"2011-02-01T00:00:00Z","End":"2011-03-01T00:00:00Z"},"Action":"Allow"}]`,
	})
	got, err := b.SearchCtx(ctx, bob.Key, &SearchQuery{Sensors: []string{"ECG"}, TimeRange: feb, Reference: ref})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("February search = %v", got)
	}
	apr, _ := timeutil.NewRange(
		time.Date(2011, 4, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2011, 5, 1, 0, 0, 0, 0, time.UTC))
	got, _ = b.SearchCtx(ctx, bob.Key, &SearchQuery{Sensors: []string{"ECG"}, TimeRange: apr, Reference: ref})
	if len(got) != 0 {
		t.Fatalf("April search = %v", got)
	}
}

func TestSearchValidate(t *testing.T) {
	ctx := context.Background()
	b, bob := newBrokerWith(t, nil)
	bad := []*SearchQuery{
		{Sensors: []string{""}},
		{Contexts: map[rules.Category]rules.Level{rules.CategoryStress: rules.LevelModes}},
		{ActiveContexts: []string{"levitating"}},
		{Region: geo.Rect{MinLat: 10, MaxLat: 5, MinLon: 0, MaxLon: 0}},
	}
	for i, q := range bad {
		if _, err := b.SearchCtx(ctx, bob.Key, q); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
	if _, err := b.SearchCtx(ctx, "bogus", &SearchQuery{}); err == nil {
		t.Error("bad key should fail")
	}
}

func TestSearchRegionProbe(t *testing.T) {
	ctx := context.Background()
	rect, _ := geo.NewRect(geo.Point{Lat: 34.05, Lon: -118.46}, geo.Point{Lat: 34.08, Lon: -118.43})
	b, bob := newBrokerWith(t, map[string]string{
		// Shares only inside the campus rect (by raw region, not label).
		"alice": `[{"Region":{"rect":{"minLat":34.05,"minLon":-118.46,"maxLat":34.08,"maxLon":-118.43}},"Action":"Allow"}]`,
	})
	got, err := b.SearchCtx(ctx, bob.Key, &SearchQuery{Sensors: []string{"ECG"}, Region: rect, Reference: ref})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("region search = %v", got)
	}
	far, _ := geo.NewRect(geo.Point{Lat: 48, Lon: 2}, geo.Point{Lat: 49, Lon: 3})
	got, _ = b.SearchCtx(ctx, bob.Key, &SearchQuery{Sensors: []string{"ECG"}, Region: far, Reference: ref})
	if len(got) != 0 {
		t.Fatalf("far region search = %v", got)
	}
}
