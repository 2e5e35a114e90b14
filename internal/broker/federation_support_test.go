package broker

import (
	"context"
	"errors"
	"testing"

	"sensorsafe/internal/timeutil"
)

// Federated consumers need search results carrying store addresses and
// study contributor rosters; these cover both broker extensions.

func TestSearchInfoCarriesStoreAddresses(t *testing.T) {
	ctx := context.Background()
	b, bob := newBrokerWith(t, map[string]string{
		"alice": `[{"Action":"Allow"}]`,
		"carol": `[{"Sensor":["Accelerometer"],"Action":"Allow"}]`,
	})
	rep, _ := timeutil.ParseRepeated([]string{"Wed"}, []string{"9:00am", "6:00pm"})
	hits, err := b.SearchInfoCtx(ctx, bob.Key, &SearchQuery{
		Sensors:       []string{"ECG"},
		LocationLabel: "work",
		RepeatTime:    rep,
		Reference:     ref,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].Contributor != "alice" || hits[0].StoreAddr != "store-alice" {
		t.Fatalf("hits = %+v, want alice@store-alice", hits)
	}
	if _, err := b.SearchInfoCtx(ctx, "bogus", &SearchQuery{}); err == nil {
		t.Error("bad key should fail")
	}
	// Search stays a thin view over SearchInfo.
	names, err := b.SearchCtx(ctx, bob.Key, &SearchQuery{
		Sensors:       []string{"ECG"},
		LocationLabel: "work",
		RepeatTime:    rep,
		Reference:     ref,
	})
	if err != nil || len(names) != 1 || names[0] != "alice" {
		t.Fatalf("Search = %v, %v", names, err)
	}
}

func TestStudyRoster(t *testing.T) {
	b, _ := newBrokerWith(t, map[string]string{"alice": `[{"Action":"Allow"}]`})
	if err := b.EnrollContributor("asthma", "alice"); !errors.Is(err, ErrUnknownStudy) {
		t.Fatalf("enroll before create = %v, want ErrUnknownStudy", err)
	}
	if err := b.CreateStudy("asthma"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Alice", "bob", "alice"} { // dup alice, case-insensitive
		if err := b.EnrollContributor("asthma", name); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.EnrollContributor("asthma", ""); err == nil {
		t.Error("empty contributor should fail")
	}
	got, err := b.StudyContributors("asthma")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("roster = %v, want 2 distinct contributors", got)
	}
	if _, err := b.StudyContributors("nope"); !errors.Is(err, ErrUnknownStudy) {
		t.Errorf("unknown study = %v", err)
	}
}

func TestStudyRosterPersists(t *testing.T) {
	dir := t.TempDir()
	b, err := NewPersistent(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.CreateStudy("sleep"); err != nil {
		t.Fatal(err)
	}
	if err := b.EnrollContributor("sleep", "alice"); err != nil {
		t.Fatal(err)
	}
	if err := b.EnrollContributor("sleep", "bob"); err != nil {
		t.Fatal(err)
	}

	b2, err := NewPersistent(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := b2.StudyContributors("sleep")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("roster after reload = %v", got)
	}
	// Case-insensitive dedup must survive the reload too.
	if err := b2.EnrollContributor("sleep", "ALICE"); err != nil {
		t.Fatal(err)
	}
	if got, _ = b2.StudyContributors("sleep"); len(got) != 2 {
		t.Fatalf("re-enroll after reload duplicated: %v", got)
	}
}
