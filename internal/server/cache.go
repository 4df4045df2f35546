package server

import "sync"

// Cache is the result cache: canonicalized query options map to the
// finished answer. Within one Engine epoch a stored answer can never go
// stale, so a hit is bit-identical to the run that produced it; across
// epochs the serving layer tags keys with the producing epoch and calls
// Sweep after an evidence update to drop the entries whose epoch is no
// longer served (lookups use the current epoch's keys, so superseded
// entries are unreachable even before the sweep collects them).
//
// Eviction is FIFO by insertion order: the serving workload this layer
// targets is many clients re-issuing a working set of identical queries,
// where any reasonable policy keeps the hot keys; FIFO needs no per-hit
// bookkeeping on the (lock-shared) read path.
type Cache struct {
	mu      sync.RWMutex
	max     int
	entries map[string]any
	order   []string // insertion order, for FIFO capacity eviction
	metrics *Counters
}

// NewCache creates a cache holding at most max entries (max <= 0 disables
// caching: Get always misses and Put drops).
func NewCache(max int, m *Counters) *Cache {
	if m == nil {
		m = &Counters{}
	}
	c := &Cache{max: max, metrics: m}
	if max > 0 {
		c.entries = make(map[string]any, max)
	}
	return c
}

// Enabled reports whether the cache stores anything at all.
func (c *Cache) Enabled() bool { return c.max > 0 }

// Get returns the cached value for key, counting the hit or miss.
func (c *Cache) Get(key string) (any, bool) {
	if c.max <= 0 {
		c.metrics.CacheMisses.Add(1)
		return nil, false
	}
	c.mu.RLock()
	v, ok := c.entries[key]
	c.mu.RUnlock()
	if ok {
		c.metrics.CacheHits.Add(1)
	} else {
		c.metrics.CacheMisses.Add(1)
	}
	return v, ok
}

// Put stores a value, evicting the oldest entries when over capacity. A
// concurrent duplicate Put of the same key keeps the first value — both
// were computed from the same canonical options, so they are
// interchangeable, and keeping the first preserves "a hit returns exactly
// what some completed run returned".
func (c *Cache) Put(key string, v any) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.entries[key]; dup {
		return
	}
	for len(c.entries) >= c.max && len(c.order) > 0 {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, oldest)
	}
	c.entries[key] = v
	c.order = append(c.order, key)
}

// Sweep drops every entry whose key fails keep, preserving the insertion
// order of the survivors, and reports how many entries were invalidated
// and how many were retained. The serving layer calls it after an evidence
// update with a keep predicate matching the new current epoch's key prefix.
func (c *Cache) Sweep(keep func(key string) bool) (invalidated, retained int) {
	if c.max <= 0 {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	kept := c.order[:0]
	for _, k := range c.order {
		if keep(k) {
			kept = append(kept, k)
			continue
		}
		delete(c.entries, k)
		invalidated++
	}
	c.order = kept
	return invalidated, len(c.order)
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}
