// Package bad exercises the obsnames analyzer: non-constant names, bad
// casing, and duplicate registrations are all flagged — for metric
// families and for trace span names alike — and so is a span started
// with trace.Start instead of obs.Span.
package bad

import (
	"context"

	"sensorsafe/internal/obs"
	"sensorsafe/internal/obs/trace"
)

var dynamicName = "sensorsafe_fixture_dynamic_total"

var (
	_ = obs.NewCounter(dynamicName, "non-constant name")              // want "compile-time string constant"
	_ = obs.NewCounter("Fixture_CamelCase_Total", "bad case")         // want "not snake_case"
	_ = obs.NewGauge("sensorsafe_fixture_dup", "first registration")  // unique: accepted
	_ = obs.NewGauge("sensorsafe_fixture_dup", "second registration") // want "already registered"
)

var dynamicSpan = "fixture.dynamic"

func badSpans(ctx context.Context) {
	_, _, stopDynamic := obs.Span(ctx, dynamicSpan) // want "compile-time string constant"
	stopDynamic(nil)
	_, _, stopNoDot := obs.Span(ctx, "nodot") // want "not dot-separated lowercase"
	stopNoDot(nil)
	_, _, stopCase := obs.Span(ctx, "Fixture.Eval") // want "not dot-separated lowercase"
	stopCase(nil)

	_, _, stop := obs.Span(ctx, "fixture.dup_span") // unique: accepted
	stop(nil)
	_, span := trace.Start(ctx, "fixture.dup_span") // want "already instrumented" // want "use obs.Span"
	span.End()
}
