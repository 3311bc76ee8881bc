package service

import (
	"container/list"
	"fmt"
	"sync"
	"time"

	"cij/internal/core"
	"cij/internal/obs"
	"cij/internal/storage"
)

// cacheKey canonicalizes one join computation: dataset names qualified by
// their versions plus every parameter that affects the computed pair set
// or its cost profile. Storage is part of the key because the two modes,
// while pair-identical, have different cost profiles (a flat result
// reports zero page accesses) and the cached Stats must describe the run
// that produced them. TopK is deliberately absent — the cache stores the
// full pair list and responses slice a prefix — so one entry serves every
// TopK of the same join. Names are %q-quoted so no name can forge the
// field separators, and the ingest-time nameRe gate keeps them printable;
// invalidation never parses keys anyway (slots carry the names as
// fields), so the quoting is belt on top of structural braces.
func cacheKey(left, right *Dataset, algo string, workers int, storage string) string {
	return fmt.Sprintf("%q@%d|%q@%d|%s|w%d|s%s", left.Name, left.Version, right.Name, right.Version, algo, workers, storage)
}

// cachedResult is one memoized join: the full pair list and the cost of
// the run that produced it.
type cachedResult struct {
	Pairs []core.Pair
	Count int64
	// IO is the physical and logical I/O aggregate of the run, summed over
	// every buffer the request touched (both per-dataset views, or the
	// shared scratch environment of the materializing algorithms). Its
	// projections feed the response stats and the /metrics families (which
	// /stats reads), so the layers reconcile by construction.
	IO  storage.Stats
	CPU time.Duration
	// Trace holds the run's phase spans when the computation was traced
	// (request opt-in or slow-query logging armed); nil otherwise. Cached
	// hits replay the original run's spans.
	Trace        []obs.Span
	TraceDropped int64
}

// resultCache is the versioned LRU of join results. Versioned keys make
// invalidation implicit (a re-ingested dataset changes every key it
// participates in), so the cache only needs classic LRU mechanics plus an
// eager sweep to release the memory of unreachable entries.
type resultCache struct {
	mu    sync.Mutex
	cap   int
	lru   *list.List // front = most recently used
	byKey map[string]*list.Element
	// The cache counts only into these metric counters (on the service's
	// registry), so /metrics, /stats and the history ring's windowed
	// hit-ratios all read one source.
	hits, misses, evicted *obs.Counter
}

// cacheSlot carries the operand names as structured fields next to the
// flat key. Invalidation matches on the fields, never by substring
// against the key — the old textual scan (`strings.Contains(key,
// "|"+name+"@")`) was only sound as long as every byte of every name
// was separator-free, a property enforced far away at ingest; matching
// fields removes the coupling entirely.
type cacheSlot struct {
	key         string
	left, right string
	res         *cachedResult
}

// newResultCache creates a cache holding at most capEntries results,
// counting lookups and evictions into the given counters; capEntries <= 0
// disables caching (every lookup misses, nothing stored).
func newResultCache(capEntries int, hits, misses, evicted *obs.Counter) *resultCache {
	return &resultCache{
		cap:     capEntries,
		lru:     list.New(),
		byKey:   make(map[string]*list.Element),
		hits:    hits,
		misses:  misses,
		evicted: evicted,
	}
}

// get returns the cached result for key, promoting it to most recently
// used. The returned result is shared: callers must treat Pairs as
// read-only (slicing a TopK prefix is fine).
func (c *resultCache) get(key string) (*cachedResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.lru.MoveToFront(el)
		c.hits.Inc()
		return el.Value.(*cacheSlot).res, true
	}
	c.misses.Inc()
	return nil, false
}

// put stores res under key, evicting from the LRU tail on overflow.
// left/right are the operand dataset names, kept for field-exact
// invalidation.
func (c *resultCache) put(key, left, right string, res *cachedResult) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		el.Value.(*cacheSlot).res = res
		c.lru.MoveToFront(el)
		return
	}
	c.byKey[key] = c.lru.PushFront(&cacheSlot{key: key, left: left, right: right, res: res})
	for c.lru.Len() > c.cap {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.byKey, back.Value.(*cacheSlot).key)
		c.evicted.Inc()
	}
}

// invalidateDataset removes every entry involving the named dataset (any
// version), comparing the slot's operand-name fields exactly — a dataset
// whose name happens to be a substring or prefix of another's can no
// longer sweep its neighbor's entries, and no name can dodge its own
// sweep. Correctness does not need the sweep at all — version-qualified
// keys are already unreachable after a re-ingest or mutation — but the
// pair lists can be large and there is no reason to keep feeding dead
// entries through LRU eviction.
func (c *resultCache) invalidateDataset(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.lru.Front(); el != nil; {
		next := el.Next()
		slot := el.Value.(*cacheSlot)
		if slot.left == name || slot.right == name {
			c.lru.Remove(el)
			delete(c.byKey, slot.key)
		}
		el = next
	}
}

// len returns the current entry count.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
