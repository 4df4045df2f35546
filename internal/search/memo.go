package search

import (
	"math"
	"sync"
	"sync/atomic"
)

// ComponentMemo is the component-granular result cache of the epoch Engine:
// it maps (component content, effective WalkSAT options) to the component's
// finished best state. The key is a fingerprint of the component's local
// MRF — not its identity within one epoch — so entries stay valid across
// evidence updates for every component the update did not touch, and two
// isomorphic components inside one epoch share a single entry. A hit is
// bit-identical to the run that produced it: the key captures everything the
// deterministic per-component search depends on, so no invalidation is ever
// needed for correctness; eviction is FIFO for capacity only.
type ComponentMemo struct {
	mu      sync.Mutex
	max     int
	entries map[memoKey]memoEntry
	order   []memoKey

	hits   atomic.Int64
	misses atomic.Int64
}

type memoEntry struct {
	best     []bool
	bestCost float64
	flips    int64
}

// MemoStats is a point-in-time snapshot of a ComponentMemo.
type MemoStats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int   `json:"entries"`
}

// NewComponentMemo creates a memo holding at most max entries (max <= 0
// picks the default 8192).
func NewComponentMemo(max int) *ComponentMemo {
	if max <= 0 {
		max = 8192
	}
	return &ComponentMemo{max: max, entries: make(map[memoKey]memoEntry)}
}

// Stats snapshots the memo's counters.
func (cm *ComponentMemo) Stats() MemoStats {
	cm.mu.Lock()
	n := len(cm.entries)
	cm.mu.Unlock()
	return MemoStats{Hits: cm.hits.Load(), Misses: cm.misses.Load(), Entries: n}
}

// pow2Ceil rounds n up to the next power of two (minimum 1).
func pow2Ceil(n int64) int64 {
	p := int64(1)
	for p < n {
		p <<= 1
	}
	return p
}

// memoKey is everything a component's deterministic search depends on: the
// network's content fingerprint (mrf.MRF.Fingerprint) and the effective
// options. Floats are keyed by their bits, so the key distinguishes exactly
// the values the search would.
type memoKey struct {
	fp         uint64
	seed       int64
	maxFlips   int64
	maxTries   int
	noisyP     uint64
	hardWeight uint64
}

func newMemoKey(fp uint64, o Options) memoKey {
	return memoKey{
		fp:         fp,
		seed:       o.Seed,
		maxFlips:   o.MaxFlips,
		maxTries:   o.MaxTries,
		noisyP:     math.Float64bits(o.NoisyP),
		hardWeight: math.Float64bits(o.HardWeight),
	}
}

// lookup returns the memoized outcome for a component under the effective
// options, if present. The returned state is shared and must not be
// mutated; ComponentAware only projects it into the global state.
func (cm *ComponentMemo) lookup(k memoKey) (memoEntry, bool) {
	cm.mu.Lock()
	e, ok := cm.entries[k]
	cm.mu.Unlock()
	if ok {
		cm.hits.Add(1)
	} else {
		cm.misses.Add(1)
	}
	return e, ok
}

// store records a completed (never canceled) per-component search outcome.
func (cm *ComponentMemo) store(k memoKey, r *Result) {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	if _, dup := cm.entries[k]; dup {
		return
	}
	for len(cm.entries) >= cm.max && len(cm.order) > 0 {
		delete(cm.entries, cm.order[0])
		cm.order = cm.order[1:]
	}
	cm.entries[k] = memoEntry{
		best:     append([]bool(nil), r.Best...),
		bestCost: r.BestCost,
		flips:    r.Flips,
	}
	cm.order = append(cm.order, k)
}
