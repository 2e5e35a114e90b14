// Package auth implements SensorSafe's authentication (paper §5.4): every
// user holds a unique API key — a random string generated with the SHA
// algorithm — presented in the body of API requests. The key is the only
// credential: it "acts as username and password".
package auth

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"sensorsafe/internal/obs"
)

// metricAuthFailures counts rejected authentication attempts; a spike in
// bad_key is the first sign of key guessing or a stale vaulted credential.
var metricAuthFailures = obs.NewCounterVec("sensorsafe_auth_failures_total",
	"Authentication failures, by reason.", "reason")

// APIKey is a user's bearer credential.
type APIKey string

// Role distinguishes the two principals of the paper's architecture.
type Role int

// Roles.
const (
	RoleContributor Role = iota
	RoleConsumer
)

func (r Role) String() string {
	switch r {
	case RoleContributor:
		return "contributor"
	case RoleConsumer:
		return "consumer"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// User is a registered principal.
type User struct {
	Name       string    `json:"name"`
	Role       Role      `json:"role"`
	Key        APIKey    `json:"key,omitempty"`
	Registered time.Time `json:"registered"`
}

// Errors returned by the registry.
var (
	ErrDuplicateUser = errors.New("auth: user already registered")
	ErrUnknownUser   = errors.New("auth: unknown user")
	ErrBadKey        = errors.New("auth: invalid API key")
)

// NewAPIKey generates a fresh key: SHA-256 over 32 bytes of entropy,
// hex-encoded (the paper's "random string generated by the SHA algorithm").
func NewAPIKey() (APIKey, error) {
	var buf [32]byte
	if _, err := rand.Read(buf[:]); err != nil {
		return "", fmt.Errorf("auth: entropy: %w", err)
	}
	sum := sha256.Sum256(buf[:])
	return APIKey(hex.EncodeToString(sum[:])), nil
}

// Registry maps users to API keys and authenticates requests. Safe for
// concurrent use. Its one write is Put: registration and key rotation
// are a Put of the account as it is to be, which the servers build,
// log and then apply.
type Registry struct {
	mu     sync.RWMutex
	byName map[string]*User
	byKey  map[APIKey]*User
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byName: make(map[string]*User),
		byKey:  make(map[APIKey]*User),
	}
}

func normName(s string) string { return strings.ToLower(strings.TrimSpace(s)) }

// Put inserts u, or replaces the user with its name (matched
// case-insensitively) and invalidates that user's old key. It rejects an
// empty name, an empty key and a key another user holds.
func (r *Registry) Put(u User) error {
	n := normName(u.Name)
	if n == "" || u.Key == "" {
		return fmt.Errorf("auth: user %q needs a name and a key", u.Name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if holder, ok := r.byKey[u.Key]; ok && normName(holder.Name) != n {
		return fmt.Errorf("auth: key of %s is held by another user", u.Name)
	}
	if old, ok := r.byName[n]; ok {
		delete(r.byKey, old.Key)
	}
	r.byName[n] = &u
	r.byKey[u.Key] = &u
	return nil
}

// Authenticate resolves an API key to its user.
func (r *Registry) Authenticate(key APIKey) (User, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	u, ok := r.byKey[key]
	if !ok {
		metricAuthFailures.With("bad_key").Inc()
		return User{}, ErrBadKey
	}
	return *u, nil
}

// Lookup finds a user by name. The returned user's key is blanked; keys
// flow only at registration and rotation.
func (r *Registry) Lookup(name string) (User, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	u, ok := r.byName[normName(name)]
	if !ok {
		return User{}, fmt.Errorf("%w: %s", ErrUnknownUser, name)
	}
	out := *u
	out.Key = ""
	return out, nil
}

// Len returns the number of registered users.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byName)
}

// Snapshot exports every user including API keys, sorted by name, for
// persistence. Unlike Lookup, the keys are included; callers must guard
// the serialized form like any credential store.
func (r *Registry) Snapshot() []User {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]User, 0, len(r.byName))
	for _, u := range r.byName {
		out = append(out, *u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
