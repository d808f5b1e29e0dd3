// Package serve turns the reproduction stack into a long-running
// rendering daemon: an HTTP/JSON API for render frames, cinema orbit
// segments, and sweep cells, backed by a shared read-only cache of the
// expensive derived structures (macrocell grids, SAH BVHs, datasets)
// and a bounded admission queue that enforces a node power budget using
// the paper's power-opportunity / power-sensitive classification.
//
// The design premise is the ROADMAP's "vizpower as a service" item: the
// per-call fast paths built in earlier PRs all rebuild their
// acceleration state on every Filter.Run. A daemon serving thousands of
// requests against the same (dataset, timestep, transfer function) key
// must build each structure exactly once — under contention, exactly
// once in total, not once per concurrent requester — and share it
// read-only afterwards. That is Cache: a single-flight, build-once map
// whose values are immutable after construction.
package serve

import (
	"sync"
)

// cacheEntry is one key's slot: the ready channel closes when the build
// completes, after which val/err are immutable.
type cacheEntry struct {
	ready chan struct{}
	val   any
	err   error
}

// Cache is a single-flight, build-forever cache for derived structures.
// The first requester of a key runs the build; concurrent requesters of
// the same key block on the same build instead of duplicating it; later
// requesters hit the completed entry without blocking. A failed build is
// not cached — the next requester retries — so a transient failure
// (dataset still warming, disk hiccup) does not poison the key forever.
//
// Values must be immutable once built: they are handed out to an
// unbounded number of concurrent readers with no further synchronization.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry

	hits   int64 // completed-entry lookups
	misses int64 // lookups that started a build
	waits  int64 // lookups that joined another requester's in-flight build
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[string]*cacheEntry)}
}

// GetOrBuild returns the value under key, running build to produce it if
// absent. hit reports whether the value existed (or was being built)
// before this call: a request that neither built nor waited is a warm
// hit. Exactly one build runs per key no matter how many goroutines race
// on it; build errors propagate to every waiter of that flight and evict
// the entry so a later request can retry.
func (c *Cache) GetOrBuild(key string, build func() (any, error)) (val any, hit bool, err error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		select {
		case <-e.ready:
			c.hits++
			c.mu.Unlock()
			return e.val, true, e.err
		default:
		}
		c.waits++
		c.mu.Unlock()
		<-e.ready
		return e.val, true, e.err
	}
	e := &cacheEntry{ready: make(chan struct{})}
	c.entries[key] = e
	c.misses++
	c.mu.Unlock()

	e.val, e.err = build()
	if e.err != nil {
		// Evict before publishing so no requester after this point joins
		// a failed flight; the waiters already parked get the error.
		c.mu.Lock()
		if c.entries[key] == e {
			delete(c.entries, key)
		}
		c.mu.Unlock()
	}
	close(e.ready)
	return e.val, false, e.err
}

// CacheStats is a Stats snapshot.
type CacheStats struct {
	Entries int   `json:"entries"`
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"` // builds started (one per key per generation)
	Waits   int64 `json:"waits"`  // requests that joined an in-flight build
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries: len(c.entries),
		Hits:    c.hits,
		Misses:  c.misses,
		Waits:   c.waits,
	}
}
