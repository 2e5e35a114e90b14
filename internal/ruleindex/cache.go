package ruleindex

import (
	"hash/maphash"
	"sync"
	"sync/atomic"

	"sensorsafe/internal/rules"
)

// decisionCache is the bounded, sharded memo of computed decisions. It
// lives inside one immutable Index, so invalidation is by construction:
// every rule or place mutation compiles a fresh index with an empty cache
// and atomically replaces the old one — a stale decision cannot survive a
// rule-version bump because the map it lived in is unreachable.
type decisionCache struct {
	seed   maphash.Seed
	shards []cacheShard
	// perShard bounds each shard's entry count; when full, an arbitrary
	// resident entry is evicted (random replacement — cheap, and good
	// enough for the highly repetitive key distribution of enforcement
	// spans).
	perShard int

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

type cacheShard struct {
	mu sync.Mutex
	m  map[string]*rules.Decision
}

// newDecisionCache bounds the cache to entries decisions, rounded up to a
// multiple of shards.
func newDecisionCache(entries, shards int) *decisionCache {
	c := &decisionCache{
		seed:     maphash.MakeSeed(),
		shards:   make([]cacheShard, shards),
		perShard: (entries + shards - 1) / shards,
	}
	for i := range c.shards {
		c.shards[i].m = make(map[string]*rules.Decision)
	}
	return c
}

func (c *decisionCache) shard(key string) *cacheShard {
	return &c.shards[maphash.String(c.seed, key)%uint64(len(c.shards))]
}

// get returns a private clone of the memoized decision, flagged Cached.
func (c *decisionCache) get(key string) (*rules.Decision, bool) {
	if c == nil {
		return nil, false
	}
	s := c.shard(key)
	s.mu.Lock()
	d, ok := s.m[key]
	s.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	out := d.Clone()
	out.Cached = true
	return out, true
}

// put memoizes a decision, reporting whether a resident entry was evicted
// to make room. The caller must hand over a clone it will not mutate.
func (c *decisionCache) put(key string, d *rules.Decision) (evicted bool) {
	if c == nil {
		return false
	}
	s := c.shard(key)
	s.mu.Lock()
	if _, exists := s.m[key]; !exists && len(s.m) >= c.perShard {
		for k := range s.m { // evict an arbitrary resident
			delete(s.m, k)
			break
		}
		c.evictions.Add(1)
		evicted = true
	}
	s.m[key] = d
	s.mu.Unlock()
	return evicted
}

// len counts resident entries across shards.
func (c *decisionCache) len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += len(c.shards[i].m)
		c.shards[i].mu.Unlock()
	}
	return n
}

// capacity is the total entry bound.
func (c *decisionCache) capacity() int {
	if c == nil {
		return 0
	}
	return c.perShard * len(c.shards)
}
