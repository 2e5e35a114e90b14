package obs

import (
	"context"
	"log/slog"
	"time"

	"sensorsafe/internal/obs/trace"
)

// spanSeconds aggregates every named span into one histogram family so
// "how long does a privacy-rule evaluation take under load?" is a single
// /metrics query away. The status label splits successes from failures,
// so an error path that returns fast no longer drags the apparent
// latency of the happy path down.
var spanSeconds = NewHistogramVec("sensorsafe_span_seconds",
	"Latency of named internal spans (rule evaluation, segment scans, ...), by outcome.",
	DefBuckets, "span", "status")

// Span starts a named child span in the context's trace (a new root when
// none is active) and a latency timer. It returns the context carrying
// the new span — pass it to callees so their spans nest under this one —
// the span itself for attribute/provenance annotation, and the stop
// function. Stop takes the operation's outcome: it ends the trace span,
// feeds sensorsafe_span_seconds{span,status}, and, at debug level, logs
// a line carrying the trace ID as an exemplar so a histogram outlier can
// be chased into /debug/traces.
func Span(ctx context.Context, name string) (context.Context, *trace.Span, func(error)) {
	sctx, sp := trace.Start(ctx, name)
	start := time.Now()
	return sctx, sp, func(err error) {
		d := time.Since(start)
		status := "ok"
		if err != nil {
			status = "error"
			sp.SetError(err)
		}
		sp.End()
		spanSeconds.With(name, status).Observe(d.Seconds())
		if l := Log(sctx, nil); l.Enabled(sctx, slog.LevelDebug) {
			args := []any{"span", name, "status", status,
				"duration_ms", float64(d.Microseconds()) / 1000}
			if tid := sp.TraceIDString(); tid != "" {
				args = append(args, "trace_id", tid)
			}
			l.Debug("span", args...)
		}
	}
}
