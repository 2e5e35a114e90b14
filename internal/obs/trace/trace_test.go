package trace

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// testCtx returns a context routing spans to a fresh, isolated collector.
func testCtx(t *testing.T) (context.Context, *Collector) {
	t.Helper()
	c := NewCollector(8, 16, time.Hour)
	return WithCollector(context.Background(), c), c
}

func TestStartRootAndChildLinks(t *testing.T) {
	ctx, col := testCtx(t)
	rctx, root := Start(ctx, "test.root")
	if root == nil {
		t.Fatal("root span is nil with tracing enabled")
	}
	cctx, child := Start(rctx, "test.child")
	_, grandchild := Start(cctx, "test.grandchild")
	grandchild.End()
	child.End()
	root.End()

	if child.Context().Trace != root.Context().Trace {
		t.Fatalf("child trace %s != root trace %s", child.Context().Trace, root.Context().Trace)
	}
	spans := col.Trace(root.TraceIDString())
	if len(spans) != 3 {
		t.Fatalf("collected %d spans, want 3", len(spans))
	}
	byName := map[string]*SpanData{}
	for _, sd := range spans {
		byName[sd.Name] = sd
	}
	if got := byName["test.root"].ParentID; got != "" {
		t.Errorf("root has parent %q", got)
	}
	if got, want := byName["test.child"].ParentID, byName["test.root"].SpanID; got != want {
		t.Errorf("child parent = %q, want %q", got, want)
	}
	if got, want := byName["test.grandchild"].ParentID, byName["test.child"].SpanID; got != want {
		t.Errorf("grandchild parent = %q, want %q", got, want)
	}
}

func TestSiblingsShareParent(t *testing.T) {
	ctx, _ := testCtx(t)
	rctx, root := Start(ctx, "test.root")
	_, a := Start(rctx, "test.a")
	_, b := Start(rctx, "test.b")
	if a.Context().Span == b.Context().Span {
		t.Error("sibling spans share a span ID")
	}
	a.End()
	b.End()
	root.End()
}

func TestTraceparentRoundTrip(t *testing.T) {
	ctx, _ := testCtx(t)
	rctx, root := Start(ctx, "test.root")
	defer root.End()

	header := Traceparent(rctx)
	sc, ok := ParseTraceparent(header)
	if !ok {
		t.Fatalf("own header %q does not parse", header)
	}
	if sc != root.Context() {
		t.Fatalf("parsed %+v, want %+v", sc, root.Context())
	}

	// A "remote" service joins the trace through the header.
	remoteCtx := WithRemoteParent(context.Background(), header)
	_, server := Start(remoteCtx, "test.server")
	server.End()
	if server.Context().Trace != root.Context().Trace {
		t.Error("remote child did not join the caller's trace")
	}
	if FromContext(remoteCtx) != nil {
		t.Error("remote parent must not surface as a local span")
	}
}

func TestParseTraceparentRejectsGarbage(t *testing.T) {
	valid := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	if _, ok := ParseTraceparent(valid); !ok {
		t.Fatalf("valid header %q rejected", valid)
	}
	bad := []string{
		"",
		"garbage",
		"01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", // future version
		"00-00000000000000000000000000000000-b7ad6b7169203331-01", // zero trace
		"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01", // zero span
		"00-0af7651916cd43dd8448eb211c80319X-b7ad6b7169203331-01", // non-hex
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331",    // short
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-zz", // bad flags
	}
	for _, h := range bad {
		if sc, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) = %+v, want reject", h, sc)
		}
		ctx := WithRemoteParent(context.Background(), h)
		if SpanContextOf(ctx).Valid() {
			t.Errorf("WithRemoteParent(%q) installed a parent", h)
		}
	}
}

// FuzzTraceparent feeds untrusted traceparent headers to the parser: it
// must never panic, and whatever it accepts must be a valid context that
// formats back to a header parsing to the same context.
func FuzzTraceparent(f *testing.F) {
	f.Add("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	f.Add("00-0AF7651916CD43DD8448EB211C80319C-B7AD6B7169203331-ff")
	f.Add("00-00000000000000000000000000000000-b7ad6b7169203331-01")
	f.Add("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-zz")
	f.Add("")
	f.Fuzz(func(t *testing.T, h string) {
		sc, ok := ParseTraceparent(h)
		if !ok {
			return
		}
		if !sc.Valid() {
			t.Fatalf("ParseTraceparent(%q) accepted invalid %+v", h, sc)
		}
		again, ok := ParseTraceparent(sc.Traceparent())
		if !ok || again != sc {
			t.Fatalf("ParseTraceparent(%q) = %+v, but its header %q parses to %+v, %v", h, sc, sc.Traceparent(), again, ok)
		}
	})
}

func TestNilSpanMethodsAreSafe(t *testing.T) {
	var s *Span
	s.SetAttr(String("k", "v"))
	s.AddEvent("retry")
	s.SetError(errors.New("boom"))
	s.End()
	if s.TraceIDString() != "" {
		t.Error("nil span has a trace ID")
	}
	if s.Context().Valid() {
		t.Error("nil span has a valid context")
	}
}

func TestDisabledTracing(t *testing.T) {
	SetEnabled(false)
	defer SetEnabled(true)
	ctx, col := testCtx(t)
	sctx, sp := Start(ctx, "test.disabled")
	if sp != nil {
		t.Fatal("Start returned a span while disabled")
	}
	sp.End()
	if got := Traceparent(sctx); got != "" {
		t.Errorf("traceparent while disabled = %q", got)
	}
	if got := len(col.Traces()); got != 0 {
		t.Errorf("collector saw %d traces while disabled", got)
	}
}

func TestSpanStatusAttrsAndEvents(t *testing.T) {
	ctx, col := testCtx(t)
	_, sp := Start(ctx, "test.status", String("component", "store"))
	sp.SetAttr(Int("fanout", 3), Bool("hedged", true), Duration("wait", 1500*time.Microsecond))
	sp.AddEvent("retry", Int("attempt", 1))
	sp.SetError(errors.New("deadline exceeded"))
	sp.End()
	sp.SetAttr(String("late", "ignored")) // after End: dropped
	sp.End()                              // double End: no-op

	spans := col.Trace(sp.TraceIDString())
	if len(spans) != 1 {
		t.Fatalf("collected %d spans, want 1", len(spans))
	}
	sd := spans[0]
	if sd.Status != "error" || !strings.Contains(sd.Error, "deadline") {
		t.Errorf("status=%q error=%q", sd.Status, sd.Error)
	}
	if sd.Attrs["component"] != "store" || sd.Attrs["fanout"] != int64(3) || sd.Attrs["hedged"] != true {
		t.Errorf("attrs = %#v", sd.Attrs)
	}
	if sd.Attrs["wait"] != 1.5 {
		t.Errorf("duration attr = %#v, want 1.5 ms", sd.Attrs["wait"])
	}
	if _, late := sd.Attrs["late"]; late {
		t.Error("attribute set after End was recorded")
	}
	if len(sd.Events) != 1 || sd.Events[0].Name != "retry" || sd.Events[0].Attrs["attempt"] != int64(1) {
		t.Errorf("events = %#v", sd.Events)
	}
}

func TestIDFromContext(t *testing.T) {
	if got := IDFromContext(context.Background()); got != "" {
		t.Errorf("empty context trace ID = %q", got)
	}
	ctx, _ := testCtx(t)
	sctx, sp := Start(ctx, "test.id")
	defer sp.End()
	if got := IDFromContext(sctx); got != sp.TraceIDString() || len(got) != 32 {
		t.Errorf("IDFromContext = %q, want %q", got, sp.TraceIDString())
	}
}
