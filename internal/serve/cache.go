package serve

import (
	"container/list"
	"crypto/sha256"
	"hash"
	"sync"

	"pgxsort/internal/dist"
)

// resultCache deduplicates repeated sorts: identical (key type, canonical
// input bytes) pairs map to the same content hash — whatever request
// shape carried them — and a hit returns the stored canonical sorted
// bytes without touching the engine. Entries are evicted least-recently-used once the stored bytes
// exceed the byte budget. A nil budget (Config.CacheBytes < 0) disables
// the cache entirely; every call is then a miss that never stores.
type resultCache struct {
	mu       sync.Mutex
	budget   int64
	maxEntry int64 // per-entry byte cap (budget/CacheEntryFrac)
	bytes    int64
	lru      *list.List // front = most recently used; values are *cacheEntry
	byKey    map[cacheKey]*list.Element

	hits, misses, evictions, skipped int64
}

type cacheKey [sha256.Size]byte

type cacheEntry struct {
	key    cacheKey
	sorted []byte
}

func newResultCache(budget, entryFrac int64) *resultCache {
	c := &resultCache{budget: budget}
	if budget > 0 {
		c.lru = list.New()
		c.byKey = make(map[cacheKey]*list.Element)
		c.maxEntry = budget
		if entryFrac > 1 {
			c.maxEntry = budget / entryFrac
		}
	}
	return c
}

// newJobHash starts the content address of one sort job: write the
// dataset's canonical bytes, then Sum. The scheme is versioned so a format
// change cannot alias old entries.
func newJobHash(kt dist.KeyType) hash.Hash {
	h := sha256.New()
	h.Write([]byte("pgxsortd/v1\x00"))
	h.Write([]byte(kt))
	h.Write([]byte{0})
	return h
}

// hashJob is the content address of a dataset whose canonical bytes are
// in hand.
func hashJob(kt dist.KeyType, raw []byte) cacheKey {
	h := newJobHash(kt)
	h.Write(raw)
	var k cacheKey
	h.Sum(k[:0])
	return k
}

// get returns the cached sorted bytes for key, if present.
func (c *resultCache) get(key cacheKey) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.byKey == nil {
		c.misses++
		return nil, false
	}
	el, ok := c.byKey[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.hits++
	return el.Value.(*cacheEntry).sorted, true
}

// put stores one result, evicting LRU entries past the byte budget.
// Results larger than the per-entry cap are not stored: one huge
// answer caching itself would evict the cache's whole working set for
// a single entry that is cheap to recompute relative to its size.
func (c *resultCache) put(key cacheKey, sorted []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.byKey == nil {
		return
	}
	if int64(len(sorted)) > c.maxEntry {
		c.skipped++
		return
	}
	if el, ok := c.byKey[key]; ok {
		c.lru.MoveToFront(el)
		return
	}
	c.byKey[key] = c.lru.PushFront(&cacheEntry{key: key, sorted: sorted})
	c.bytes += int64(len(sorted))
	for c.bytes > c.budget {
		el := c.lru.Back()
		e := el.Value.(*cacheEntry)
		c.lru.Remove(el)
		delete(c.byKey, e.key)
		c.bytes -= int64(len(e.sorted))
		c.evictions++
	}
}

// stats snapshots the cache counters for /metrics.
func (c *resultCache) stats() (hits, misses, evictions, skipped, bytes, entries, budget int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	entries = 0
	if c.lru != nil {
		entries = int64(c.lru.Len())
	}
	budget = c.budget
	if budget < 0 {
		budget = 0
	}
	return c.hits, c.misses, c.evictions, c.skipped, c.bytes, entries, budget
}
