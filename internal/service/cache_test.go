package service

import (
	"fmt"
	"testing"
)

func res(tag string) *Result { return &Result{Deck: tag} }

func TestCacheHitMissAndPromotion(t *testing.T) {
	c := newModelCache(2)
	if _, ok := c.get("a"); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.store("a", "ra", res("a"), 0)
	c.store("b", "rb", res("b"), 1)
	if r, ok := c.get("a"); !ok || r.Deck != "a" {
		t.Fatalf("a not cached: %v %v", r, ok)
	}
	// a is now most recently used; storing c must evict b, not a.
	c.store("c", "rc", res("c"), 2)
	if _, ok := c.get("b"); ok {
		t.Fatal("LRU evicted the wrong entry (b survived)")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("recently used entry a was evicted")
	}
	s := c.snapshot()
	if s.Entries != 2 || s.Evictions != 1 || s.Stores != 3 {
		t.Fatalf("snapshot %+v, want 2 entries, 1 eviction, 3 stores", s)
	}
	if s.Hits != 2 || s.Misses != 2 || s.RawHits != 0 {
		t.Fatalf("snapshot %+v, want 2 hits / 2 misses / 0 raw hits", s)
	}
	if want := 0.5; s.HitRate != want {
		t.Fatalf("hit rate %g, want %g", s.HitRate, want)
	}
}

func TestCacheDuplicateStoreKeepsFirstEntry(t *testing.T) {
	c := newModelCache(4)
	first := res("first")
	c.store("k", "r1", first, 0)
	c.store("k", "r2", res("second"), 1)
	got, ok := c.get("k")
	if !ok || got != first {
		t.Fatalf("duplicate store replaced the entry: got %v", got)
	}
	if s := c.snapshot(); s.Entries != 1 {
		t.Fatalf("duplicate store grew the cache: %+v", s)
	}
	// The racing leader's raw key replaces the entry's alias.
	if got, key, ok := c.getRaw("r2"); !ok || got != first || key != "k" {
		t.Fatalf("second store's raw key: %v %q %v, want the first entry under k", got, key, ok)
	}
	if _, _, ok := c.getRaw("r1"); ok || len(c.byRaw) != 1 {
		t.Fatalf("replaced alias r1 still resolves (%v) or index holds %d keys, want 1", ok, len(c.byRaw))
	}
}

func TestCacheCapacityBound(t *testing.T) {
	c := newModelCache(8)
	for i := 0; i < 100; i++ {
		c.store(fmt.Sprintf("k%d", i), fmt.Sprintf("r%d", i), res("x"), i)
	}
	s := c.snapshot()
	if s.Entries != 8 {
		t.Fatalf("cache grew past capacity: %d entries", s.Entries)
	}
	if s.Evictions != 92 {
		t.Fatalf("evictions = %d, want 92", s.Evictions)
	}
	// The survivors are exactly the 8 most recent keys.
	for i := 92; i < 100; i++ {
		if _, ok := c.get(fmt.Sprintf("k%d", i)); !ok {
			t.Fatalf("recent key k%d evicted", i)
		}
	}
}

// TestCacheRawAliasCounting pins the alias index's accounting: a raw
// miss counts nothing (the canonical lookup that follows counts the
// request once), a raw hit counts one hit and one raw hit, and a raw
// hit promotes its entry in the LRU like a canonical hit.
func TestCacheRawAliasCounting(t *testing.T) {
	c := newModelCache(2)
	if _, _, ok := c.getRaw("ra"); ok {
		t.Fatal("empty cache reported a raw hit")
	}
	if s := c.snapshot(); s.Hits != 0 || s.Misses != 0 || s.RawHits != 0 {
		t.Fatalf("raw miss was counted: %+v", s)
	}
	c.store("a", "ra", res("a"), 0)
	c.store("b", "rb", res("b"), 1)
	if r, key, ok := c.getRaw("ra"); !ok || r.Deck != "a" || key != "a" {
		t.Fatalf("raw lookup of a: %v %q %v", r, key, ok)
	}
	c.store("c", "rc", res("c"), 2) // a was promoted: b is evicted
	if _, _, ok := c.getRaw("rb"); ok {
		t.Fatal("raw hit did not promote its entry (b survived)")
	}
	if s := c.snapshot(); s.Hits != 1 || s.RawHits != 1 || s.Misses != 0 {
		t.Fatalf("snapshot %+v, want 1 hit, 1 raw hit, 0 misses", s)
	}
}

// TestCacheEvictionDropsAliases pins that an evicted entry leaves no
// stale alias behind: neither its current raw key nor one replaced by a
// duplicate store resolves, and the alias index shrinks with the cache.
func TestCacheEvictionDropsAliases(t *testing.T) {
	c := newModelCache(1)
	c.store("a", "ra1", res("a"), 0)
	c.store("a", "ra2", res("a"), 1) // a racing leader's store moves a's alias
	c.store("b", "rb", res("b"), 2)  // evicts a and its alias
	for _, raw := range []string{"ra1", "ra2"} {
		if r, key, ok := c.getRaw(raw); ok {
			t.Fatalf("stale alias %s resolved to %q (%v) after eviction", raw, key, r)
		}
	}
	if n := len(c.byRaw); n != 1 {
		t.Fatalf("alias index holds %d raw keys after eviction, want 1", n)
	}
	if _, _, ok := c.getRaw("rb"); !ok {
		t.Fatal("surviving entry lost its alias")
	}
}
