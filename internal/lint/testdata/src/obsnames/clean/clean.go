// Package clean shows metric registrations and span instrumentation the
// obsnames analyzer must accept: literal snake_case metric names and
// dot-separated lowercase span names, each appearing exactly once.
package clean

import (
	"context"

	"sensorsafe/internal/obs"
	"sensorsafe/internal/obs/trace"
)

const histName = "sensorsafe_fixture_lag_seconds" // constants fold, so this is fine

var (
	fixtureOps = obs.NewCounter("sensorsafe_fixture_ops_total", "Well-named fixture counter.")
	fixtureLag = obs.NewHistogramVec(histName, "Labeled fixture histogram.", nil, "stage")
)

func tracedWork(ctx context.Context) {
	ctx, span, stop := obs.Span(ctx, "fixture.rule_eval")
	_ = ctx
	_ = span
	stop(nil)
	_, root, stopRoot := obs.Span(context.Background(), "fixture.session")
	root.SetAttr(trace.String("fixture", "root"))
	stopRoot(nil)
}
