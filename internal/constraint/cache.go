package constraint

import (
	"container/list"
	"sync"
)

// Cache memoizes Compile results keyed by source text, with LRU eviction.
// Compiled expressions are immutable and safe for concurrent evaluation, so
// one cached *Expr serves any number of callers. Compile errors are cached
// too: a trader fed the same malformed query repeatedly should not re-lex it
// every time.
//
// The zero value is not usable; construct with NewCache.
type Cache struct {
	// mu guards order and entries. Lookups mutate LRU order, so even hits
	// take the exclusive lock; the critical section is a map probe and a
	// list splice, far cheaper than the parse it replaces.
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recent; values are *cacheEntry
	entries map[string]*list.Element

	hits, misses uint64
}

type cacheEntry struct {
	src  string
	expr *Expr
	err  error
}

// DefaultCacheSize bounds a NewCache(0) cache. Trader workloads see a small
// working set of distinct constraint sources (one per application spec
// shape), so a few hundred entries is effectively unbounded in practice
// while still capping a hostile stream of unique sources.
const DefaultCacheSize = 256

// NewCache returns a Cache holding at most capacity compiled expressions.
// capacity <= 0 selects DefaultCacheSize.
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheSize
	}
	return &Cache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[string]*list.Element, capacity),
	}
}

// Compile returns the compiled form of src, reusing a cached result when the
// same source text was compiled before.
func (c *Cache) Compile(src string) (*Expr, error) {
	c.mu.Lock()
	if el, ok := c.entries[src]; ok {
		c.order.MoveToFront(el)
		ent := el.Value.(*cacheEntry)
		c.hits++
		c.mu.Unlock()
		return ent.expr, ent.err
	}
	c.misses++
	c.mu.Unlock()

	// Compile outside the lock: parsing is the expensive part, and a slow
	// compile must not stall unrelated lookups. Concurrent misses on the
	// same source may both compile; last writer wins, which is harmless
	// because compilation is deterministic.
	expr, err := Compile(src)

	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[src]; ok {
		// Raced with another miss; keep the incumbent.
		c.order.MoveToFront(el)
		ent := el.Value.(*cacheEntry)
		return ent.expr, ent.err
	}
	c.entries[src] = c.order.PushFront(&cacheEntry{src: src, expr: expr, err: err}) //lint:alloc cache-miss insert
	if c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).src)
	}
	return expr, err
}

// Stats reports cumulative hit and miss counts.
func (c *Cache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// size returns the number of cached entries.
func (c *Cache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
