package resilience

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"plain", errors.New("boom"), false},
		{"marked terminal", MarkTerminal(io.ErrUnexpectedEOF), false},
		{"canceled", context.Canceled, false},
		{"deadline", context.DeadlineExceeded, true},
		{"wrapped deadline", fmt.Errorf("op: %w", context.DeadlineExceeded), true},
		{"torn body", io.ErrUnexpectedEOF, true},
		{"eof", io.EOF, true},
		{"status 500", Status(500, 0, "internal"), true},
		{"status 503", Status(503, 0, "unavailable"), true},
		{"status 429", Status(429, 0, "throttled"), true},
		{"status 400", Status(400, 0, "bad request"), false},
		{"status 403", Status(403, 0, "forbidden"), false},
		{"status 409 stale", Status(409, 0, "stale"), false},
	}
	for _, tc := range cases {
		if got := Retryable(tc.err); got != tc.want {
			t.Errorf("%s: Retryable = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestStatusErrorStaleSentinel(t *testing.T) {
	err := Status(http.StatusConflict, 0, "replica version 3 behind 5")
	if !IsStale(err) {
		t.Fatal("409 should unwrap to ErrStaleVersion")
	}
	if IsStale(Status(500, 0, "boom")) {
		t.Fatal("500 must not read as stale")
	}
	wrapped := fmt.Errorf("sync: %w", err)
	if !IsStale(wrapped) {
		t.Fatal("stale sentinel must survive wrapping")
	}
}

func TestRetryAfterOf(t *testing.T) {
	if got := RetryAfterOf(Status(503, 2*time.Second, "busy")); got != 2*time.Second {
		t.Fatalf("RetryAfterOf = %v, want 2s", got)
	}
	if got := RetryAfterOf(errors.New("plain")); got != 0 {
		t.Fatalf("RetryAfterOf(plain) = %v, want 0", got)
	}
}

func TestPolicyDoRetriesUntilSuccess(t *testing.T) {
	var slept []time.Duration
	p := &Policy{
		MaxAttempts: 5,
		Sleep: func(ctx context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		},
	}
	calls := 0
	err := p.Do(context.Background(), "test", func(ctx context.Context) error {
		calls++
		if calls < 4 {
			return Status(503, 0, "unavailable")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if calls != 4 {
		t.Fatalf("calls = %d, want 4", calls)
	}
	if len(slept) != 3 {
		t.Fatalf("sleeps = %d, want 3", len(slept))
	}
	// 50ms, 100ms, 200ms — doubling, each within the ±10% jitter band.
	for i, want := range []time.Duration{50, 100, 200} {
		lo, hi := want*time.Millisecond*9/10, want*time.Millisecond*11/10
		if slept[i] < lo || slept[i] > hi {
			t.Errorf("sleep[%d] = %v, want ~%vms", i, slept[i], want)
		}
	}
}

func TestPolicyDoStopsOnTerminal(t *testing.T) {
	p := &Policy{MaxAttempts: 5, Sleep: func(context.Context, time.Duration) error { return nil }}
	calls := 0
	err := p.Do(context.Background(), "test", func(ctx context.Context) error {
		calls++
		return Status(403, 0, "forbidden")
	})
	if calls != 1 {
		t.Fatalf("terminal error retried: calls = %d", calls)
	}
	var se *StatusError
	if !errors.As(err, &se) || se.Code != 403 {
		t.Fatalf("err = %v, want the 403 back", err)
	}
}

func TestPolicyDoExhaustsAttempts(t *testing.T) {
	p := &Policy{MaxAttempts: 3, Sleep: func(context.Context, time.Duration) error { return nil }}
	calls := 0
	err := p.Do(context.Background(), "test", func(ctx context.Context) error {
		calls++
		return Status(500, 0, "still down")
	})
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	if err == nil || !Retryable(err) {
		t.Fatalf("exhaustion should surface the retryable cause, got %v", err)
	}
}

func TestPolicyDoRespectsRetryAfter(t *testing.T) {
	var slept []time.Duration
	p := &Policy{
		MaxAttempts: 2,
		Sleep: func(ctx context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		},
	}
	p.Do(context.Background(), "test", func(ctx context.Context) error {
		return Status(429, 300*time.Millisecond, "throttled")
	})
	if len(slept) != 1 || slept[0] < 300*time.Millisecond {
		t.Fatalf("Retry-After ignored: slept %v", slept)
	}
}

// TestPolicyDoClampsRetryAfter: a Retry-After hint is untrusted input. A
// peer that answers 429 with a day-long hint must not hold the caller for
// a day per retry.
func TestPolicyDoClampsRetryAfter(t *testing.T) {
	var slept []time.Duration
	p := &Policy{
		MaxAttempts: 3,
		Sleep: func(ctx context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		},
	}
	p.Do(context.Background(), "test", func(ctx context.Context) error {
		return Status(429, 24*time.Hour, "throttled")
	})
	if len(slept) != 2 {
		t.Fatalf("sleeps = %d, want 2", len(slept))
	}
	for i, d := range slept {
		if d > maxRetryAfter {
			t.Errorf("sleep[%d] = %v, want at most %v", i, d, maxRetryAfter)
		}
	}
}

// TestPolicyJitterDiffersBetweenPolicies: jitter exists to spread
// retriers out, so two fresh policies (as in two processes) must not
// draw the same backoff schedule.
func TestPolicyJitterDiffersBetweenPolicies(t *testing.T) {
	firstDelay := func() time.Duration {
		var first time.Duration
		p := &Policy{MaxAttempts: 2, Sleep: func(ctx context.Context, d time.Duration) error {
			first = d
			return nil
		}}
		p.Do(context.Background(), "test", func(ctx context.Context) error {
			return Status(503, 0, "unavailable")
		})
		return first
	}
	if a, b := firstDelay(), firstDelay(); a == b {
		t.Fatalf("two fresh policies both backed off %v first", a)
	}
}

func TestPolicyDoHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := &Policy{MaxAttempts: 10, Sleep: func(context.Context, time.Duration) error { return nil }}
	calls := 0
	err := p.Do(ctx, "test", func(context.Context) error {
		calls++
		cancel()
		return Status(500, 0, "boom")
	})
	if calls != 1 {
		t.Fatalf("calls after cancel = %d, want 1", calls)
	}
	if err == nil {
		t.Fatal("want error after cancellation")
	}
}

func TestIdemCacheLRU(t *testing.T) {
	c := NewIdemCache(2)
	c.Put("a", CachedResponse{Status: 200, Body: []byte("A")})
	c.Put("b", CachedResponse{Status: 200, Body: []byte("B")})
	if _, ok := c.Get("a"); !ok { // refresh a's recency
		t.Fatal("a missing")
	}
	c.Put("c", CachedResponse{Status: 200, Body: []byte("C")}) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted as LRU")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should have survived (recently used)")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	c.Put("a", CachedResponse{Status: 201, Body: []byte("A2")})
	if got, _ := c.Get("a"); got.Status != 201 {
		t.Fatalf("re-put should replace: status %d", got.Status)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	if err := WriteFileAtomic(path, []byte(`{"v":1}`), 0o600); err != nil {
		t.Fatal(err)
	}
	// A stray torn temp file from a "crash" must not block or corrupt the
	// next write.
	if err := os.WriteFile(path+".tmp", []byte(`{"v":2,"TORN`), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte(`{"v":3}`), 0o600); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != `{"v":3}` {
		t.Fatalf("content = %q", got)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file should be consumed by the rename")
	}
}
