package obs

import (
	"context"
	"strings"
	"testing"
)

func TestRequestIDRoundTrip(t *testing.T) {
	ctx := context.Background()
	if got := RequestID(ctx); got != "" {
		t.Errorf("empty context request id = %q", got)
	}
	ctx = WithRequestID(ctx, "abc123")
	if got := RequestID(ctx); got != "abc123" {
		t.Errorf("request id = %q", got)
	}
}

func TestNewRequestID(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		id := NewRequestID()
		if len(id) != 16 {
			t.Fatalf("id %q has length %d, want 16", id, len(id))
		}
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
}

func TestLoggerTagsComponentAndRequestID(t *testing.T) {
	var b strings.Builder
	logger := NewLogger("store", &b)
	ctx := WithRequestID(context.Background(), "rid-1")
	Log(ctx, logger).Info("hello", "k", "v")
	out := b.String()
	for _, want := range []string{"component=store", "request_id=rid-1", "msg=hello", "k=v"} {
		if !strings.Contains(out, want) {
			t.Errorf("log line %q missing %q", out, want)
		}
	}
}

func TestTimeFeedsSpanHistogram(t *testing.T) {
	before := spanSeconds.With("obs.test_span", "ok").Count()
	_, _, stop := Span(context.Background(), "obs.test_span")
	stop(nil)
	if got := spanSeconds.With("obs.test_span", "ok").Count(); got != before+1 {
		t.Errorf("span count = %d, want %d", got, before+1)
	}
}
