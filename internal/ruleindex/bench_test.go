package ruleindex

import (
	"math/rand"
	"testing"

	"sensorsafe/internal/rules"
)

// benchFixture builds a generated rule set of the given size plus a pool
// of requests to sweep, shared by the linear and indexed benchmarks so
// the two measure identical work.
func benchFixture(b *testing.B, nRules int) (*rules.Engine, *Index, []*rules.Request) {
	b.Helper()
	gaz := testGazetteer(b)
	rng := rand.New(rand.NewSource(int64(nRules)))
	rs := make([]*rules.Rule, nRules)
	for i := range rs {
		rs[i] = genRule(b, rng, i)
	}
	eng, err := rules.NewEngine(rs, gaz)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := New(rs, gaz, Options{})
	if err != nil {
		b.Fatal(err)
	}
	reqs := make([]*rules.Request, 256)
	for i := range reqs {
		reqs[i] = genRequest(rng)
	}
	return eng, ix, reqs
}

// BenchmarkLinearDecide is the baseline the index is measured against: the
// engine's linear scan over the same rule set and requests.
func BenchmarkLinearDecide(b *testing.B) {
	eng, _, reqs := benchFixture(b, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Decide(reqs[i%len(reqs)])
	}
}

// BenchmarkIndexDecide measures the compiled index with a warm decision
// cache — the steady state of a store serving repeat consumers.
func BenchmarkIndexDecide(b *testing.B) {
	_, ix, reqs := benchFixture(b, 1000)
	for _, req := range reqs {
		ix.Decide(req)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Decide(reqs[i%len(reqs)])
	}
}

// BenchmarkIndexDecideCold measures the index with memoization disabled:
// the pure partition-intersect-combine path every novel request pays.
func BenchmarkIndexDecideCold(b *testing.B) {
	gaz := testGazetteer(b)
	rng := rand.New(rand.NewSource(1000))
	rs := make([]*rules.Rule, 1000)
	for i := range rs {
		rs[i] = genRule(b, rng, i)
	}
	ix, err := New(rs, gaz, Options{CacheEntries: -1})
	if err != nil {
		b.Fatal(err)
	}
	reqs := make([]*rules.Request, 256)
	for i := range reqs {
		reqs[i] = genRequest(rng)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Decide(reqs[i%len(reqs)])
	}
}

// BenchmarkCompile measures rule-set → index compilation, which runs on
// every rule mutation.
func BenchmarkCompile(b *testing.B) {
	gaz := testGazetteer(b)
	rng := rand.New(rand.NewSource(7))
	rs := make([]*rules.Rule, 1000)
	for i := range rs {
		rs[i] = genRule(b, rng, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(rs, gaz, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
