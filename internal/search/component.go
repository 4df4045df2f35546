package search

import (
	"context"
	"math"
	"sync"
	"time"

	"tuffy/internal/mrf"
)

// ComponentOptions configures component-aware search (Section 3.3).
type ComponentOptions struct {
	// Base WalkSAT options; MaxFlips is the TOTAL budget split across
	// components by weighted round-robin (|Gi|/|G| of the budget each,
	// exactly the scheduling of Section 4.4).
	Base Options
	// Parallelism is the number of worker goroutines (1 = sequential, on
	// the caller's goroutine).
	Parallelism int
	// Memo, when set, caches per-component outcomes by content. It also
	// switches the per-component budget and seed derivation to a stable
	// scheme (size over the power-of-two ceiling of the total, content-hash
	// seeds) so that a component untouched by an evidence update keeps the
	// exact same effective options across epochs — the precondition for its
	// entry to be reusable bit-identically. Queries carrying a Tracker run
	// for real (no memo reads or writes) but use the same scheme, keeping
	// tracked and untracked results of one query identical.
	Memo *ComponentMemo
}

// ComponentResult is the global outcome of per-component search.
type ComponentResult struct {
	// Best is the global assignment stitched from each component's best.
	Best []bool
	// BestCost is the sum of per-component best costs plus fixed cost.
	BestCost float64
	Flips    int64
	Elapsed  time.Duration
	// PerComponent holds each component's final best cost.
	PerComponent []float64
}

// ComponentAware runs WalkSAT independently on each connected component,
// keeping the lowest-cost state per component — the behaviour Theorem 3.1
// proves exponentially better than monolithic WalkSAT on multi-component
// MRFs. Components are taken in index order by a worker pool, or run on
// the caller's goroutine at Parallelism 1 (eachComponent). The
// components' local MRFs must be immutable from here on: their search
// indexes are built once and shared (see RunComponent).
//
// A canceled context stops the search promptly and returns ErrCanceled with
// a valid best-so-far result: components already searched keep their best
// state, unstarted components stay at the all-false baseline.
func ComponentAware(ctx context.Context, parent *mrf.MRF, comps []*mrf.Component, opts ComponentOptions) (*ComponentResult, error) {
	opts.Base = opts.Base.withDefaults()
	// More workers than components would only idle: the cap bounds the
	// goroutines one query can start, whatever Parallelism it asks for.
	opts.Parallelism = min(max(opts.Parallelism, 1), max(len(comps), 1))
	totalAtoms := 0
	for _, c := range comps {
		totalAtoms += c.Size()
	}
	start := time.Now()

	global := parent.NewState()
	res := &ComponentResult{PerComponent: make([]float64, len(comps))}
	var mu sync.Mutex

	// Per-component all-false baseline costs: they seed the time-cost
	// tracking below, and they are what an unstarted component contributes
	// when a cancellation stops the sweep early (its slice of the global
	// state is still all-false).
	baseline := make([]float64, len(comps))
	for i, c := range comps {
		baseline[i] = c.MRF.AllFalseCost()
		res.PerComponent[i] = baseline[i]
	}

	// Time-cost tracking: the global state starts all-false; as each
	// component's search completes its best is stitched in, and the global
	// cost is the sum of finished bests plus the all-false baseline of
	// unfinished components — the quantity the paper's time-cost curves
	// plot for Tuffy.
	var trackedCost float64
	if opts.Base.Tracker != nil {
		trackedCost = parent.FixedCost
		for i := range comps {
			trackedCost += baseline[i]
		}
		opts.Base.Tracker.Record(trackedCost)
	}

	eachComponent(ctx, len(comps), opts.Parallelism, func(idx int, sc *Scratch) {
		comp := comps[idx]
		r := RunComponent(ctx, comp, idx, int64(totalAtoms), opts.Base, opts.Memo, sc)
		if r.Best == nil {
			return // canceled before the first state was recorded
		}
		mu.Lock()
		res.Flips += r.Flips
		res.PerComponent[idx] = r.BestCost
		comp.ProjectState(r.Best, global)
		if opts.Base.Tracker != nil {
			trackedCost += r.BestCost - baseline[idx]
			opts.Base.Tracker.Record(trackedCost)
		}
		mu.Unlock()
	})

	res.Best = global
	res.BestCost = parent.FixedCost
	for _, c := range res.PerComponent {
		res.BestCost += c
	}
	// Per-component costs already include each sub-MRF's own FixedCost
	// (components carry none), so no double counting occurs.
	res.Elapsed = time.Since(start)
	if ctx.Err() != nil {
		return res, Canceled(ctx)
	}
	return res, nil
}

// eachComponent calls run for the components 0..n-1 in index order and
// skips every one not yet started once ctx is canceled. At parallelism 1 it
// runs them on the caller's goroutine with one Scratch; otherwise
// parallelism workers take them in index order, each with its own Scratch
// for all of its components, and run may be called concurrently.
func eachComponent(ctx context.Context, n, parallelism int, run func(idx int, sc *Scratch)) {
	if parallelism <= 1 {
		var sc Scratch
		for idx := 0; idx < n && ctx.Err() == nil; idx++ {
			run(idx, &sc)
		}
		return
	}
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc Scratch
			for idx := range work {
				if ctx.Err() == nil { // else drain the queue
					run(idx, &sc)
				}
			}
		}()
	}
dispatch:
	for idx := 0; idx < n; idx++ {
		select {
		case work <- idx:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(work)
	wg.Wait()
}

// RunComponent runs one component of a component-aware search: it derives
// the component's effective options from the parent-level base options —
// the weighted-round-robin flip budget (proportional to component size;
// with a memo the denominator is the power-of-two ceiling of totalAtoms,
// still within 2x of the proportional share but insensitive to the small
// atom-count drift evidence updates cause, so untouched components keep
// their budgets and memo entries across epochs) and the per-component
// seed (content-hash offset with a memo, index-based without) — then
// consults the memo and runs WalkSAT on a miss.
//
// This derivation is the contract of bit-identical parallelism: the
// outcome is a pure function of (component content, idx, totalAtoms,
// defaulted base options, memo-enabledness), with no dependence on
// parallelism or scheduling, so however ComponentAware's workers divide
// the components, no answer changes. base must already be defaulted
// (Options.withDefaults); totalAtoms is the component-atom total of the
// parent decomposition.
//
// A memo hit returns the stored outcome without a run; the returned Best
// is shared with the memo and must not be mutated. A base.Tracker, when
// set, disables memo reads and writes (tracked queries run for real) but
// leaves the derivation untouched. A nil Best reports a run canceled
// before its first state was recorded.
//
// comp.MRF must be immutable — an epoch's local network: the run searches
// the occurrence index the MRF itself carries (built by the first run that
// misses, shared by every later one, across epochs for components an
// evidence update did not touch) and keys the memo by the fingerprint
// cached beside it; a hit touches the fingerprint only. sc holds the run's
// mutable state and is the caller's to reuse for its next component; it
// must not be used by two goroutines at once.
func RunComponent(ctx context.Context, comp *mrf.Component, idx int, totalAtoms int64, base Options, memo *ComponentMemo, sc *Scratch) *Result {
	denom := totalAtoms
	if memo != nil {
		denom = pow2Ceil(denom)
	}
	o := base
	o.MaxFlips = 0
	if denom != 0 {
		o.MaxFlips = base.MaxFlips * int64(comp.Size()) / denom
		if o.MaxFlips < 1 {
			o.MaxFlips = 1
		}
	}
	o.Tracker = nil // per-component costs are not global costs
	var key memoKey
	if memo != nil {
		// Content-hash seed: stable across epochs for untouched components
		// (and shared by isomorphic ones), unlike the index-based stream,
		// which shifts when earlier components appear or vanish.
		fp, seedOffset := comp.MRF.Fingerprint()
		o.Seed = base.Seed + seedOffset
		key = newMemoKey(fp, o)
		if base.Tracker == nil {
			if e, ok := memo.lookup(key); ok {
				return &Result{Best: e.best, BestCost: e.bestCost, Flips: e.flips, HitFlips: -1}
			}
		}
	} else {
		o.Seed = base.Seed + int64(idx)*7919
	}
	r := walkSAT(ctx, comp.MRF, comp.MRF.SharedPostings(), o, sc)
	if r.Best != nil && memo != nil && base.Tracker == nil && ctx.Err() == nil {
		memo.store(key, r)
	}
	return r
}

// Monolithic runs plain WalkSAT on the whole MRF (the Tuffy-p / Alchemy
// behaviour) and returns a ComponentResult for uniform comparison. On
// cancellation it returns the best-so-far result alongside ErrCanceled.
func Monolithic(ctx context.Context, parent *mrf.MRF, opts Options) (*ComponentResult, error) {
	r := WalkSAT(ctx, parent, opts)
	res := &ComponentResult{
		Best:     r.Best,
		BestCost: r.BestCost,
		Flips:    r.Flips,
		Elapsed:  r.Elapsed,
	}
	if ctx.Err() != nil {
		return res, Canceled(ctx)
	}
	return res, nil
}

// HittingTime measures the expected number of flips WalkSAT needs to first
// reach targetCost, averaged over trials — the quantity Theorem 3.1 bounds.
// maxFlips caps each trial; trials that never hit count as maxFlips (a
// lower-bound estimate).
func HittingTime(m *mrf.MRF, targetCost float64, trials int, maxFlips int64, seed int64) float64 {
	total := 0.0
	for t := 0; t < trials; t++ {
		o := Options{
			MaxFlips:   maxFlips,
			MaxTries:   1,
			Seed:       seed + int64(t)*104729,
			TargetCost: targetCost,
		}
		r := WalkSAT(context.Background(), m, o)
		if r.HitFlips >= 0 {
			total += float64(r.HitFlips)
		} else {
			total += float64(maxFlips)
		}
	}
	return total / float64(trials)
}

// ComponentHittingTime is HittingTime under component-aware search: each
// component is solved to its own optimum; the hitting time is the sum of
// per-component hitting times (the "4N" side of Example 1).
func ComponentHittingTime(comps []*mrf.Component, perCompTarget func(i int) float64, trials int, maxFlips int64, seed int64) float64 {
	total := 0.0
	for t := 0; t < trials; t++ {
		sum := 0.0
		for i, c := range comps {
			o := Options{
				MaxFlips:   maxFlips,
				MaxTries:   1,
				Seed:       seed + int64(t)*104729 + int64(i)*7919,
				TargetCost: perCompTarget(i),
			}
			r := WalkSAT(context.Background(), c.MRF, o)
			if r.HitFlips >= 0 {
				sum += float64(r.HitFlips)
			} else {
				sum += float64(maxFlips)
			}
		}
		total += sum
	}
	return total / float64(trials)
}

// OptimalCost exhaustively minimizes the cost of a small MRF (≤ ~20 atoms),
// used by tests and hitting-time experiments to find target costs.
func OptimalCost(m *mrf.MRF) float64 {
	n := m.NumAtoms
	if n > 24 {
		panic("search: OptimalCost limited to 24 atoms")
	}
	best := math.Inf(1)
	state := m.NewState()
	for mask := 0; mask < 1<<n; mask++ {
		for i := 1; i <= n; i++ {
			state[i] = mask&(1<<(i-1)) != 0
		}
		if c := m.Cost(state); c < best {
			best = c
		}
	}
	return best
}
