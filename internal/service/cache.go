package service

import (
	"container/list"
	"sync"

	pact "repro"
	"repro/internal/resilience/inject"
)

// Result is one finished reduction as the service caches and serves it:
// the realized reduced deck plus the statistics a client needs to judge
// the result (degradations, pole count, pooled-workspace footprint).
// Results are immutable once stored — every cache hit and every
// singleflight follower shares the same value.
type Result struct {
	// Deck is the reduced SPICE netlist text.
	Deck string `json:"deck"`
	// Poles is the number of retained poles (internal nodes realized).
	Poles int `json:"poles"`
	// Ports and Internal describe the extracted RC network.
	Ports    int `json:"ports"`
	Internal int `json:"internal"`
	// Recoveries lists the recovery-ladder rungs that fired, rendered as
	// text; a non-empty list marks the result degraded-but-bounded.
	Recoveries []string `json:"recoveries,omitempty"`
	// ScratchBytes is the pooled FactorWorkspace footprint of the
	// reduction that produced this result.
	ScratchBytes int64 `json:"scratch_bytes"`
	// ElapsedNs is the wall-clock time of the producing reduction; a
	// cache hit returns it unchanged, so clients can see what they saved.
	ElapsedNs int64 `json:"elapsed_ns"`
	// Stage is the per-stage wall-time breakdown of the producing
	// reduction (parse/stamp/assemble/order/symbolic/factor), carried so
	// clients can see where a slow deck spent its time.
	Stage pact.StageTimes `json:"stage_ns"`
}

// CacheStats is the cache counter snapshot reported by /statz.
type CacheStats struct {
	Entries int   `json:"entries"`
	Hits    int64 `json:"hits"`
	// RawHits counts the hits answered from the raw-key alias index,
	// without parsing the deck; they are included in Hits.
	RawHits    int64   `json:"raw_hits"`
	Misses     int64   `json:"misses"`
	Stores     int64   `json:"stores"`
	StoreDrops int64   `json:"store_drops"`
	Evictions  int64   `json:"evictions"`
	HitRate    float64 `json:"hit_rate"`
}

// modelCache is a bounded LRU of reduced models keyed by canonical
// content hash. It is safe for concurrent use; eviction is strictly
// least-recently-used so a steady repeated-deck workload converges to a
// 100% hit rate regardless of interleaving.
//
// Beside the canonical index, byRaw maps raw keys (RawKey: the request
// bytes and parameters exactly as received) to entries, so a repeat of
// bytes already seen is answered without parsing. Each entry carries
// one raw key, recorded by a successful store — so only bytes that
// parsed to the entry's canonical key resolve — and deleted with the
// entry.
type modelCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used; values are *cacheEntry
	byKey    map[string]*list.Element
	byRaw    map[string]*list.Element

	hits, rawHits, misses, stores, storeDrops, evictions int64
}

type cacheEntry struct {
	key string
	raw string // the raw key byRaw maps to this entry
	res *Result
}

func newModelCache(capacity int) *modelCache {
	if capacity < 1 {
		capacity = 1
	}
	return &modelCache{
		capacity: capacity,
		ll:       list.New(),
		byKey:    map[string]*list.Element{},
		byRaw:    map[string]*list.Element{},
	}
}

// getRaw returns the cached result and canonical key aliased by
// rawKey, promoting the entry and recording a hit. A miss records
// nothing: the caller parses the deck and asks get, which counts it.
func (c *modelCache) getRaw(rawKey string) (*Result, string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byRaw[rawKey]
	if !ok {
		return nil, "", false
	}
	c.hits++
	c.rawHits++
	c.ll.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	return e.res, e.key, true
}

// get returns the cached result for key, promoting it to most recently
// used, and records a hit or miss.
func (c *modelCache) get(key string) (*Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// store inserts res under key with rawKey as its raw-key alias,
// evicting from the LRU tail past capacity. seq is the server-wide
// store sequence number: the svc.cache.store injection point fires on
// it, and an armed failure drops the write (counted in store_drops) and
// records no alias — the requester still gets its result, the next
// identical deck simply misses. Returns whether the entry was actually
// stored.
func (c *modelCache) store(key, rawKey string, res *Result, seq int) bool {
	if inject.Enabled && inject.ShouldFail(inject.SvcCacheStore, seq) {
		c.mu.Lock()
		c.storeDrops++
		c.mu.Unlock()
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stores++
	if el, ok := c.byKey[key]; ok {
		// A racing leader already stored this key; keep the existing
		// entry (results for one key are interchangeable by construction)
		// and move its alias to the latest stored bytes.
		c.ll.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		delete(c.byRaw, e.raw)
		e.raw = rawKey
		c.byRaw[rawKey] = el
		return true
	}
	el := c.ll.PushFront(&cacheEntry{key: key, raw: rawKey, res: res})
	c.byKey[key] = el
	c.byRaw[rawKey] = el
	for c.ll.Len() > c.capacity {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		e := tail.Value.(*cacheEntry)
		delete(c.byKey, e.key)
		delete(c.byRaw, e.raw)
		c.evictions++
	}
	return true
}

// snapshot returns the counters under one lock acquisition.
func (c *modelCache) snapshot() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := CacheStats{
		Entries:    c.ll.Len(),
		Hits:       c.hits,
		RawHits:    c.rawHits,
		Misses:     c.misses,
		Stores:     c.stores,
		StoreDrops: c.storeDrops,
		Evictions:  c.evictions,
	}
	if lookups := s.Hits + s.Misses; lookups > 0 {
		s.HitRate = float64(s.Hits) / float64(lookups)
	}
	return s
}
