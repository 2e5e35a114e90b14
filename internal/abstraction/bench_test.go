package abstraction_test

import (
	"context"
	"sort"
	"strings"
	"testing"

	"sensorsafe/internal/abstraction"
	"sensorsafe/internal/geo"
	"sensorsafe/internal/obs"
	"sensorsafe/internal/obs/trace"
	"sensorsafe/internal/rules"
	"sensorsafe/internal/wavesegment"
)

// BenchmarkEnforceTraced times one segment's release path — enforcement
// plus the decision-provenance span annotation the store's query path
// emits per segment — with tracing off and on. The difference between the
// two sub-benchmarks is the cost of tracing on rule evaluation.
func BenchmarkEnforceTraced(b *testing.B) {
	engine, err := t1Engine(`[
	  {"ID":"allow","Action":"Allow"},
	  {"ID":"stress-at-ucla","LocationLabel":["UCLA"],"Action":{"Abstraction":{"Stress":"Stressed/Not Stressed"}}},
	  {"ID":"no-smoking","Action":{"Abstraction":{"Smoking":"NotShared"}}}
	]`)
	if err != nil {
		b.Fatal(err)
	}
	seg := t1Segment()
	for _, mode := range []struct {
		name string
		on   bool
	}{{"off", false}, {"on", true}} {
		b.Run(mode.name, func(b *testing.B) {
			prev := trace.Enabled()
			trace.SetEnabled(mode.on)
			defer trace.SetEnabled(prev)
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := enforceTraced(ctx, engine, seg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// enforceTraced mirrors the store's per-segment release path: a provenance
// span around full enforcement, with the attribute and event shape the
// datastore query path emits.
func enforceTraced(ctx context.Context, engine *rules.Engine, seg *wavesegment.Segment) error {
	_, span, stop := obs.Span(ctx, "bench.rule_eval")
	span.SetAttr(trace.String("contributor", seg.Contributor), trace.Int64("rule_version", 1))
	rels, decisions, err := abstraction.EnforceExplained(engine, "Bob", nil, seg, geo.GridGeocoder{})
	if err != nil {
		stop(err)
		return err
	}
	matched := make(map[string]bool)
	for i, rel := range rels {
		for _, id := range decisions[i].Matched {
			matched[id] = true
		}
		span.AddEvent("release.decision",
			trace.String("outcome", "raw"),
			trace.String("rules", strings.Join(decisions[i].Matched, ",")),
			trace.String("time_granularity", rel.TimeGranularity.String()))
	}
	ids := make([]string, 0, len(matched))
	for id := range matched {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	span.SetAttr(trace.String("decision", "allow"),
		trace.String("rules_matched", strings.Join(ids, ",")),
		trace.Int("releases", len(rels)))
	stop(nil)
	return nil
}
