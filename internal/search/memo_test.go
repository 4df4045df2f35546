package search

import (
	"context"
	"math"
	"testing"

	"tuffy/internal/mrf"
)

// Fingerprints must depend on content only: two structurally identical MRFs
// share one fingerprint and seed offset (that is what lets memo entries
// survive epoch swaps), different clause structure changes it, and a repeated
// call returns the cached pair. The pinned values are what the string
// fingerprint "ce2eba9e80343f98" and its seed offset were before the
// fingerprint moved onto the MRF: component seeds must never change.
func TestMemoFingerprintContentAddressed(t *testing.T) {
	build := func(w float64) *mrf.MRF {
		m := mrf.New(2)
		_ = m.AddClause(w, 1, -2)
		return m
	}
	a, b := build(1.5), build(1.5)
	fa, sa := a.Fingerprint()
	fb, sb := b.Fingerprint()
	if fa != fb || sa != sb {
		t.Fatal("identical local MRFs fingerprint differently")
	}
	if fa != 0xce2eba9e80343f98 || sa != 1810323072 {
		t.Fatalf("fingerprint %016x / seed offset %d changed", fa, sa)
	}
	if f2, s2 := a.Fingerprint(); f2 != fa || s2 != sa {
		t.Fatal("cached fingerprint differs from first computation")
	}
	if fc, sc := build(2.5).Fingerprint(); fc == fa || sc == sa {
		t.Fatal("different weights share a fingerprint or seed offset")
	}
}

// lookup/store must round-trip an outcome, count hits and misses, keep the
// first value on duplicate stores, and evict FIFO at capacity.
func TestMemoLookupStoreEvict(t *testing.T) {
	cm := NewComponentMemo(2)
	o := Options{Seed: 3, MaxFlips: 100}
	r := &Result{Best: []bool{false, true}, BestCost: 1.5, Flips: 7}
	k1, k2, k3 := newMemoKey(1, o), newMemoKey(2, o), newMemoKey(3, o)
	if _, ok := cm.lookup(k1); ok {
		t.Fatal("empty memo hit")
	}
	cm.store(k1, r)
	e, ok := cm.lookup(k1)
	if !ok || e.bestCost != 1.5 || e.flips != 7 || !e.best[1] {
		t.Fatalf("lookup = %+v, %v", e, ok)
	}
	// The stored state is a copy: mutating the producer's slice afterwards
	// must not corrupt the memo.
	r.Best[1] = false
	if e2, _ := cm.lookup(k1); !e2.best[1] {
		t.Fatal("memo shares the producer's state slice")
	}
	// Different effective options are a different key.
	if _, ok := cm.lookup(newMemoKey(1, Options{Seed: 4, MaxFlips: 100})); ok {
		t.Fatal("hit across different options")
	}
	cm.store(k1, &Result{Best: []bool{true, true}})
	if e3, _ := cm.lookup(k1); e3.bestCost != 1.5 {
		t.Fatal("duplicate store replaced the first outcome")
	}
	cm.store(k2, r)
	cm.store(k3, r) // capacity 2: evicts k1, the oldest
	if _, ok := cm.lookup(k1); ok {
		t.Fatal("oldest entry survived eviction")
	}
	if _, ok := cm.lookup(k2); !ok {
		t.Fatal("eviction is not FIFO: the second-oldest entry is gone")
	}
	s := cm.Stats()
	if s.Entries != 2 {
		t.Fatalf("entries = %d, want 2", s.Entries)
	}
	if s.Hits == 0 || s.Misses == 0 {
		t.Fatalf("stats = %+v, want both hits and misses counted", s)
	}
}

// Key-derivation helpers must be deterministic and pow2Ceil must round up.
func TestMemoKeyHelpers(t *testing.T) {
	for n, want := range map[int64]int64{0: 1, 1: 1, 2: 2, 3: 4, 5: 8, 1024: 1024, 1025: 2048} {
		if got := pow2Ceil(n); got != want {
			t.Fatalf("pow2Ceil(%d) = %d, want %d", n, got, want)
		}
	}
	// Every option the search depends on separates keys, floats by their
	// bits (0.5 and the next float up are different searches).
	base := Options{Seed: 1, MaxFlips: 10, MaxTries: 1, NoisyP: 0.5, HardWeight: 1e7}
	variants := []Options{base, base, base, base, base}
	variants[0].Seed = 2
	variants[1].MaxFlips = 11
	variants[2].MaxTries = 2
	variants[3].NoisyP = math.Nextafter(0.5, 1)
	variants[4].HardWeight = 1e6
	for i, v := range variants {
		if newMemoKey(7, v) == newMemoKey(7, base) {
			t.Fatalf("memo key ignores option variant %d", i)
		}
	}
	if newMemoKey(7, base) == newMemoKey(8, base) {
		t.Fatal("memo key ignores the fingerprint")
	}
	if newMemoKey(7, base) != newMemoKey(7, base) {
		t.Fatal("memo key not deterministic")
	}
}

// A memoized ComponentAware re-run must serve every component from the memo
// and reproduce the first run bit-identically — the engine-level property
// (cache survives evidence updates for untouched components) reduces to
// exactly this once repairs share local-MRF pointers.
func TestMemoComponentAwareBitIdenticalReplay(t *testing.T) {
	m := mrf.New(6)
	_ = m.AddClause(1, 1, 2)
	_ = m.AddClause(0.5, -2)
	_ = m.AddClause(2, 3, -4)
	_ = m.AddClause(1.5, 5)
	_ = m.AddClause(0.25, -5, 6)
	comps := m.Components(false)
	if len(comps) < 2 {
		t.Fatalf("want a multi-component network, got %d", len(comps))
	}
	cm := NewComponentMemo(0)
	opts := ComponentOptions{Base: Options{MaxFlips: 2000, Seed: 11}, Memo: cm}
	first, err := ComponentAware(context.Background(), m, comps, opts)
	if err != nil {
		t.Fatal(err)
	}
	h0 := cm.Stats().Hits
	second, err := ComponentAware(context.Background(), m, comps, opts)
	if err != nil {
		t.Fatal(err)
	}
	if hits := cm.Stats().Hits - h0; hits != int64(len(comps)) {
		t.Fatalf("replay hits = %d, want %d", hits, len(comps))
	}
	if first.BestCost != second.BestCost || first.Flips != second.Flips {
		t.Fatalf("replay diverged: cost %v vs %v, flips %d vs %d",
			first.BestCost, second.BestCost, first.Flips, second.Flips)
	}
	for i := range first.Best {
		if first.Best[i] != second.Best[i] {
			t.Fatalf("replay state differs at atom %d", i)
		}
	}
}
