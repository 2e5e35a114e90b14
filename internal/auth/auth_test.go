package auth

import (
	"errors"
	"testing"
)

func TestNewAPIKeyUniqueAndWellFormed(t *testing.T) {
	seen := make(map[APIKey]bool)
	for i := 0; i < 100; i++ {
		k, err := NewAPIKey()
		if err != nil {
			t.Fatal(err)
		}
		if len(k) != 64 { // hex SHA-256
			t.Fatalf("key length = %d", len(k))
		}
		if seen[k] {
			t.Fatal("duplicate key generated")
		}
		seen[k] = true
	}
}

// mustPut registers name with a fresh key, as the servers do.
func mustPut(t *testing.T, r *Registry, name string, role Role) User {
	t.Helper()
	key, err := NewAPIKey()
	if err != nil {
		t.Fatal(err)
	}
	u := User{Name: name, Role: role, Key: key}
	if err := r.Put(u); err != nil {
		t.Fatal(err)
	}
	return u
}

func TestRegisterAuthenticate(t *testing.T) {
	r := NewRegistry()
	u := mustPut(t, r, "Alice", RoleContributor)
	got, err := r.Authenticate(u.Key)
	if err != nil || got.Name != "Alice" || got.Role != RoleContributor {
		t.Fatalf("Authenticate = %+v, %v", got, err)
	}
	if _, err := r.Authenticate("bogus"); !errors.Is(err, ErrBadKey) {
		t.Errorf("bad key: %v", err)
	}
	// A name is matched case-insensitively: the same name replaces.
	again := mustPut(t, r, "alice", RoleConsumer)
	if got, err := r.Authenticate(again.Key); err != nil || got.Name != "alice" {
		t.Errorf("replaced user = %+v, %v", got, err)
	}
	if err := r.Put(User{Name: "  ", Key: "k"}); err == nil {
		t.Error("blank name should be rejected")
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d", r.Len())
	}
}

func TestLookupBlanksKey(t *testing.T) {
	r := NewRegistry()
	mustPut(t, r, "alice", RoleContributor)
	got, err := r.Lookup("ALICE")
	if err != nil {
		t.Fatal(err)
	}
	if got.Key != "" {
		t.Error("Lookup must not leak the key")
	}
	if got.Name != "alice" {
		t.Errorf("name = %q", got.Name)
	}
	if _, err := r.Lookup("nobody"); !errors.Is(err, ErrUnknownUser) {
		t.Errorf("unknown user: %v", err)
	}
}

// TestRotateInvalidatesOldKey: rotation is a Put of the account under a
// new key, which invalidates the old one.
func TestRotateInvalidatesOldKey(t *testing.T) {
	r := NewRegistry()
	u := mustPut(t, r, "alice", RoleContributor)
	rotated := mustPut(t, r, "alice", RoleContributor)
	if rotated.Key == u.Key {
		t.Error("rotation must change the key")
	}
	if _, err := r.Authenticate(u.Key); !errors.Is(err, ErrBadKey) {
		t.Error("old key must be invalid")
	}
	if got, err := r.Authenticate(rotated.Key); err != nil || got.Name != "alice" {
		t.Errorf("new key: %v, %v", got, err)
	}
}

// TestSnapshotRestore: a snapshot Put user by user into an empty
// registry, as a server's replay does, restores every account and key.
func TestSnapshotRestore(t *testing.T) {
	r := NewRegistry()
	bob := mustPut(t, r, "bob", RoleConsumer)
	alice := mustPut(t, r, "alice", RoleContributor)

	snap := r.Snapshot()
	if len(snap) != 2 || snap[0].Name != "alice" || snap[1].Name != "bob" || snap[0].Key == "" {
		t.Fatalf("snapshot = %+v", snap)
	}

	r2 := NewRegistry()
	for _, u := range snap {
		if err := r2.Put(u); err != nil {
			t.Fatal(err)
		}
	}
	got, err := r2.Authenticate(alice.Key)
	if err != nil || got.Name != "alice" || got.Role != RoleContributor {
		t.Errorf("restored alice = %+v, %v", got, err)
	}
	if _, err := r2.Authenticate(bob.Key); err != nil {
		t.Errorf("restored bob: %v", err)
	}
}

func TestPutRejectsBadUsers(t *testing.T) {
	r := NewRegistry()
	if err := r.Put(User{Name: "x"}); err == nil {
		t.Error("user without key should be rejected")
	}
	if err := r.Put(User{Name: "", Key: "k"}); err == nil {
		t.Error("user without name should be rejected")
	}
	if err := r.Put(User{Name: "a", Key: "k"}); err != nil {
		t.Fatal(err)
	}
	if err := r.Put(User{Name: "b", Key: "k"}); err == nil {
		t.Error("a key another user holds should be rejected")
	}
	if got, err := r.Authenticate("k"); err != nil || got.Name != "a" || r.Len() != 1 {
		t.Errorf("after a rejected Put: key k is %+v, %v; %d users", got, err, r.Len())
	}
	if err := r.Put(User{Name: "A", Key: "k2"}); err != nil || r.Len() != 1 {
		t.Errorf("same name, other case: %v, %d users; want one user, replaced", err, r.Len())
	}
	if err := r.Put(User{Name: "b", Key: "k"}); err != nil {
		t.Errorf("a key its holder gave up: %v", err)
	}
}

func TestRoleString(t *testing.T) {
	if RoleContributor.String() != "contributor" || RoleConsumer.String() != "consumer" {
		t.Error("Role strings wrong")
	}
}
