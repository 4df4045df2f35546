package server

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// The cache must hit on stored keys, miss on absent ones, count both, and
// evict oldest-first at capacity — never invalidating a live entry.
func TestCacheHitMissEvict(t *testing.T) {
	m := &Counters{}
	c := NewCache(2, m)
	if !c.Enabled() {
		t.Fatal("cache with capacity reports disabled")
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache hit")
	}
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v.(int) != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	// Capacity eviction drops the oldest entry (a), keeps b.
	c.Put("c", 3)
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("oldest entry survived eviction")
	}
	if v, ok := c.Get("b"); !ok || v.(int) != 2 {
		t.Fatalf("Get(b) = %v, %v", v, ok)
	}
	// Duplicate Put keeps the first value (both are interchangeable).
	c.Put("b", 99)
	if v, _ := c.Get("b"); v.(int) != 2 {
		t.Fatalf("duplicate Put replaced value: %v", v)
	}
	snap := m.Snapshot()
	if snap.CacheHits != 3 || snap.CacheMisses != 2 {
		t.Fatalf("hits/misses = %d/%d, want 3/2", snap.CacheHits, snap.CacheMisses)
	}
}

// A disabled cache always misses, drops Puts, and still counts misses.
func TestCacheDisabled(t *testing.T) {
	m := &Counters{}
	c := NewCache(-1, m)
	if c.Enabled() {
		t.Fatal("disabled cache reports enabled")
	}
	c.Put("a", 1)
	if _, ok := c.Get("a"); ok {
		t.Fatal("disabled cache stored a value")
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d", c.Len())
	}
	if m.CacheMisses.Load() != 1 {
		t.Fatalf("misses = %d, want 1", m.CacheMisses.Load())
	}
}

// Concurrent readers and writers must be race-free (run under -race in
// CI) and never lose a stored key to anything but capacity.
func TestCacheConcurrent(t *testing.T) {
	c := NewCache(1024, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", i%64)
				c.Put(key, i)
				if _, ok := c.Get(key); !ok {
					t.Errorf("key %s lost", key)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() != 64 {
		t.Fatalf("Len = %d, want 64 distinct keys", c.Len())
	}
}

// Sweep must drop exactly the entries the keep predicate rejects, keep the
// survivors readable in insertion order, and be a no-op on a disabled cache.
func TestCacheSweep(t *testing.T) {
	c := NewCache(8, nil)
	c.Put("e0|a", 1)
	c.Put("e1|b", 2)
	c.Put("e0|c", 3)
	c.Put("e1|d", 4)
	inv, ret := c.Sweep(func(k string) bool { return strings.HasPrefix(k, "e1|") })
	if inv != 2 || ret != 2 {
		t.Fatalf("Sweep = %d invalidated, %d retained; want 2, 2", inv, ret)
	}
	if _, ok := c.Get("e0|a"); ok {
		t.Fatal("swept entry still readable")
	}
	if v, ok := c.Get("e1|b"); !ok || v.(int) != 2 {
		t.Fatal("surviving entry lost")
	}
	// Survivors keep their FIFO position: filling to capacity must evict
	// e1|b (now the oldest) first.
	for i := 0; i < 7; i++ {
		c.Put(fmt.Sprintf("e1|x%d", i), i)
	}
	if _, ok := c.Get("e1|b"); ok {
		t.Fatal("post-sweep eviction did not start from the oldest survivor")
	}
	if _, ok := c.Get("e1|d"); !ok {
		t.Fatal("newer survivor evicted before older one")
	}
	d := NewCache(0, nil)
	if inv, ret := d.Sweep(func(string) bool { return false }); inv != 0 || ret != 0 {
		t.Fatalf("disabled Sweep = %d, %d", inv, ret)
	}
}

// Typed errors must render their diagnostics and match their sentinels.
func TestTypedErrorStrings(t *testing.T) {
	be := &BudgetError{Resource: "flips", Requested: 100, Limit: 10}
	if !errors.Is(be, ErrBudgetExceeded) {
		t.Fatal("BudgetError does not match sentinel")
	}
	if s := be.Error(); s == "" {
		t.Fatal("empty budget error string")
	}
	qe := &QueueExpiredError{Waited: 1, Cause: errors.New("boom")}
	if !errors.Is(qe, ErrExpiredInQueue) {
		t.Fatal("QueueExpiredError does not match sentinel")
	}
	if s := qe.Error(); s == "" {
		t.Fatal("empty expiry error string")
	}
	var zero Metrics
	if zero.AvgQueueWait() != 0 || zero.AvgLatency() != 0 {
		t.Fatal("zero metrics produce nonzero averages")
	}
}

// A zero SchedulerConfig is defaulted to 4 workers and a 64-task queue.
func TestSchedulerConfigDefaults(t *testing.T) {
	s := NewScheduler(SchedulerConfig{}, nil)
	defer s.Close()
	cfg := s.cfg
	if cfg.Workers != 4 || cfg.MaxQueue != 64 {
		t.Fatalf("defaults = %+v", cfg)
	}
}
