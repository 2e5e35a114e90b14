// Package ruleindex compiles a contributor's privacy-rule set into an
// indexed, immutable evaluation plan so rule decisions stay near-constant
// as rule sets grow: hash partitions over the fold-canonicalized consumer,
// group, and context conditions; an interval tree over absolute TimeRanges
// plus an hour-of-week wheel for RepeatTimes; and a geo-grid over rule
// regions and gazetteer labels resolved at compile time. A decision
// intersects one bitset per dimension and feeds the surviving rules — in
// rule-set order — through rules.Combine, the same combiner the linear
// engine uses, so indexed decisions are byte-identical by construction.
//
// On top sits a bounded, sharded memoized decision cache keyed by the
// request's canonical signature (consumer, sorted groups, sorted contexts,
// time buckets, location signature); equal signatures provably produce
// equal match sets, so a hit returns a clone of the memoized decision.
// Indexes are immutable: every rule or place mutation compiles a fresh
// index (stamped with the new rule version) and swaps it in, which is what
// makes cache invalidation immediate.
package ruleindex

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"sensorsafe/internal/geo"
	"sensorsafe/internal/rules"
)

// Cache sizing defaults: 8 shards × 512 entries ≈ one contributor's worth
// of hot enforcement spans without unbounded growth.
const (
	DefaultCacheEntries = 4096
	DefaultCacheShards  = 8
)

// Options configures index compilation.
type Options struct {
	// Version stamps the index with the contributor's rule-set version;
	// surfaced in stats and traces so a decision is attributable to the
	// exact rule set that produced it.
	Version uint64
	// CacheEntries bounds the decision cache (DefaultCacheEntries when 0;
	// negative disables memoization entirely).
	CacheEntries int
	// CacheShards splits the cache to keep lock contention off the
	// delivery paths (DefaultCacheShards when 0).
	CacheShards int
}

// Index is one contributor's compiled evaluation plan. It is immutable
// and safe for concurrent use; it implements rules.Decider.
type Index struct {
	eng     *rules.Engine
	rs      []*rules.Rule // the engine's compiled rules, rule-set order
	version uint64
	compile time.Duration

	anyConsumer bitset            // rules with no consumer/group condition
	consumers   map[string]bitset // folded consumer → rules naming them
	groups      map[string]bitset // folded group → rules naming them
	anyContext  bitset            // rules with no context condition
	contexts    map[string]bitset // folded context label → rules naming it

	timeIdx *timeIndex
	geoIdx  *geoIndex
	cache   *decisionCache

	// rulesJSON is rs as Fig. 4 JSON, marshalled by the first State call
	// and shared, read-only, by every later one.
	rulesOnce sync.Once
	rulesJSON []byte
	rulesErr  error
}

// New validates and compiles a rule set with explicit cache options (the
// package's tests and benchmarks size the cache). gaz may be nil when no
// rule uses location labels; labels are resolved against it at compile
// time. Everything else builds a policy with Compile or Load.
func New(rs []*rules.Rule, gaz *geo.Gazetteer, opts Options) (*Index, error) {
	eng, err := rules.NewEngine(rs, gaz)
	if err != nil {
		return nil, fmt.Errorf("ruleindex: %w", err)
	}
	return fromEngine(eng, opts), nil
}

// fromEngine compiles an index over an already-built engine, sharing its
// compiled rules so both evaluate the exact same rule objects.
func fromEngine(eng *rules.Engine, opts Options) *Index {
	start := time.Now()
	crs := eng.CompiledRules()
	n := len(crs)
	ix := &Index{
		eng:         eng,
		rs:          crs,
		version:     opts.Version,
		anyConsumer: newBitset(n),
		consumers:   make(map[string]bitset),
		groups:      make(map[string]bitset),
		anyContext:  newBitset(n),
		contexts:    make(map[string]bitset),
	}
	post := func(m map[string]bitset, key string, id int32) {
		b, ok := m[key]
		if !ok {
			b = newBitset(n)
			m[key] = b
		}
		b.set(id)
	}
	for i, r := range crs {
		id := int32(i)
		if len(r.Consumers) == 0 && len(r.Groups) == 0 {
			ix.anyConsumer.set(id)
		}
		for _, c := range r.Consumers {
			post(ix.consumers, rules.Fold(c), id)
		}
		for _, g := range r.Groups {
			post(ix.groups, rules.Fold(g), id)
		}
		if len(r.Contexts) == 0 {
			ix.anyContext.set(id)
		}
		for _, c := range r.Contexts {
			post(ix.contexts, rules.Fold(c), id)
		}
	}
	ix.timeIdx = newTimeIndex(crs)
	ix.geoIdx = newGeoIndex(crs, eng.Gazetteer())

	entries, shards := opts.CacheEntries, opts.CacheShards
	if entries == 0 {
		entries = DefaultCacheEntries
	}
	if shards == 0 {
		shards = DefaultCacheShards
	}
	ix.cache = newDecisionCache(entries, shards)

	ix.compile = time.Since(start)
	metricCompile.Observe(ix.compile.Seconds())
	return ix
}

// Engine returns the linear engine the index was compiled from (also the
// BoundariesWithin implementation).
func (ix *Index) Engine() *rules.Engine { return ix.eng }

// Version returns the rule-set version the index was compiled at.
func (ix *Index) Version() uint64 { return ix.version }

// Decide evaluates the rule set for one request through the index,
// consulting the memoized decision cache first. It implements
// rules.Decider and returns decisions byte-identical to the linear
// engine's (cache hits are clones, flagged Cached).
func (ix *Index) Decide(req *rules.Request) *rules.Decision {
	n := len(ix.rs)
	consumer := rules.Fold(req.Consumer)
	groups := foldSortedUnique(req.ConsumerGroups)
	contexts := foldSortedUnique(req.ActiveContexts)
	absIdx, weekIdx := ix.timeIdx.buckets(req.At)

	// The location signature doubles as the location match bitset input,
	// so the precise geo work is done once whether or not the cache hits.
	locBits := newBitset(n)
	sig := ix.geoIdx.query(req.Location, locBits, nil)

	var key string
	if ix.cache != nil {
		key = cacheKey(consumer, groups, contexts, absIdx, weekIdx, sig)
		if d, ok := ix.cache.get(key); ok {
			metricCache.With("hit").Inc()
			metricDecisions.Inc()
			return d
		}
		metricCache.With("miss").Inc()
	}

	bits := newBitset(n)
	bits.copyFrom(ix.anyConsumer)
	if b, ok := ix.consumers[consumer]; ok {
		bits.or(b)
	}
	for _, g := range groups {
		if b, ok := ix.groups[g]; ok {
			bits.or(b)
		}
	}
	tmp := newBitset(n)
	tmp.copyFrom(ix.anyContext)
	for _, c := range contexts {
		if b, ok := ix.contexts[c]; ok {
			tmp.or(b)
		}
	}
	bits.and(tmp)
	ix.timeIdx.bits(req.At, tmp)
	bits.and(tmp)
	bits.and(locBits)

	var matched []*rules.Rule
	bits.forEach(func(i int32) { matched = append(matched, ix.rs[i]) })
	d := rules.Combine(matched)

	if ix.cache != nil {
		if ix.cache.put(key, d.Clone()) {
			metricCache.With("evict").Inc()
		}
	}
	metricDecisions.Inc()
	return d
}

// BoundariesWithin implements rules.Decider by delegating to the linear
// engine (boundary extraction is an enforcement-setup cost, not a
// per-span one).
func (ix *Index) BoundariesWithin(from, to time.Time) []time.Time {
	return ix.eng.BoundariesWithin(from, to)
}

// foldSortedUnique canonicalizes a request's string list: folded, sorted,
// deduplicated. Matching is order- and duplicate-insensitive, so this is
// the canonical cache-key form.
func foldSortedUnique(vals []string) []string {
	if len(vals) == 0 {
		return nil
	}
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = rules.Fold(v)
	}
	sort.Strings(out)
	uniq := out[:1]
	for _, v := range out[1:] {
		if v != uniq[len(uniq)-1] {
			uniq = append(uniq, v)
		}
	}
	return uniq
}

// cacheKey encodes the request's canonical signature. Every component is
// length-prefixed or numeric, so distinct signatures cannot collide.
func cacheKey(consumer string, groups, contexts []string, absIdx, weekIdx int, sig []int32) string {
	buf := make([]byte, 0, 96)
	app := func(s string) {
		buf = strconv.AppendInt(buf, int64(len(s)), 10)
		buf = append(buf, ':')
		buf = append(buf, s...)
	}
	app(consumer)
	for _, g := range groups {
		app(g)
	}
	buf = append(buf, '|')
	for _, c := range contexts {
		app(c)
	}
	buf = append(buf, '|')
	buf = strconv.AppendInt(buf, int64(absIdx), 10)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(weekIdx), 10)
	buf = append(buf, '|')
	for _, ri := range sig {
		buf = strconv.AppendInt(buf, int64(ri), 10)
		buf = append(buf, ',')
	}
	return string(buf)
}
