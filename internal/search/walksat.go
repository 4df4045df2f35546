// Package search implements the inference algorithms of the Tuffy paper:
// WalkSAT (Algorithm 1 of Appendix A.4) over an indexed in-memory MRF,
// component-aware search with per-component best states (Section 3.3), the
// Gauss-Seidel partition-aware scheme (Section 3.4), SampleSAT/MC-SAT
// marginal inference (Appendix A.5), and the in-database WalkSAT variant
// Tuffy-mm (Appendix B.2).
package search

import (
	"context"
	"math"
	"math/rand"
	"time"

	"tuffy/internal/mrf"
)

// Options controls WalkSAT.
type Options struct {
	// MaxFlips per try (default 100_000).
	MaxFlips int64
	// MaxTries restarts with fresh random states (default 1).
	MaxTries int
	// NoisyP is the probability of a random (vs. greedy) flip; the paper's
	// Algorithm 1 uses 0.5.
	NoisyP float64
	// Seed for the deterministic RNG.
	Seed int64
	// HardWeight is the finite surrogate weight guiding moves on hard
	// clauses (reported costs still treat violated hard clauses as +Inf).
	HardWeight float64
	// InitState seeds the first try with an assignment instead of a random
	// one (1-based; used by Gauss-Seidel rounds).
	InitState []bool
	// TargetCost stops the search as soon as the best cost reaches this
	// value; NaN disables (used for hitting-time experiments).
	TargetCost float64
	// Tracker receives best-cost-over-time points; may be nil.
	Tracker *Tracker
}

func (o Options) withDefaults() Options {
	if o.MaxFlips == 0 {
		o.MaxFlips = 100_000
	}
	if o.MaxTries == 0 {
		o.MaxTries = 1
	}
	if o.NoisyP == 0 {
		o.NoisyP = 0.5
	}
	if o.HardWeight == 0 {
		o.HardWeight = 1e7
	}
	if o.TargetCost == 0 {
		o.TargetCost = math.NaN()
	}
	return o
}

// ClampFlips bounds a flip budget to [1, cap] (cap <= 0 means no upper
// bound). The floor keeps tiny derived budgets searchable — the hybrid
// fallback hands oversized components 1% of the total budget, which must
// not round down to zero — and the ceiling is what an admission layer's
// per-query flip cap applies to defaulted budgets.
func ClampFlips(flips, cap int64) int64 {
	if cap > 0 && flips > cap {
		flips = cap
	}
	if flips < 1 {
		flips = 1
	}
	return flips
}

// Result reports a search outcome.
type Result struct {
	Best     []bool
	BestCost float64 // +Inf if a hard clause is violated in Best
	Flips    int64
	Restarts int
	Elapsed  time.Duration
	// HitFlips is the flip count when TargetCost was first reached
	// (-1 when never reached or no target set).
	HitFlips int64
}

// FlipRate returns flips per second.
func (r *Result) FlipRate() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Flips) / r.Elapsed.Seconds()
}

// engine is the indexed WalkSAT state: satisfied-literal counts per clause
// and an O(1)-sample set of violated clauses, with incremental updates per
// flip — the in-memory data structures whose absence makes the in-database
// variant slow (Section 3.2). The occurrence index is read-only and may be
// shared with other searches of the same network; everything else is the
// engine's own.
type engine struct {
	m          *mrf.MRF
	post       *mrf.Postings // atom -> clauses, positive and negated
	hardW      float64
	state      []bool
	satCount   []int32
	viol       []int32 // violated clause ids (positions tracked below)
	violPos    []int32 // clause -> index in viol, -1 if absent
	cost       float64 // guided cost (hard clauses at hardW)
	hardViol   int
	softCost   float64
	fixedExtra float64 // from MRF.FixedCost
}

// Scratch is the mutable half of a search: the engine's per-atom and
// per-clause arrays, the random start-state buffer, the RNG, and a Postings
// buffer for networks that have no shared index. Each worker goroutine of a
// query declares one and reuses it run after run, so these are allocated
// once per worker instead of once per component, partition visit or MC-SAT
// sample; nothing in it outlives the query. Keep it with the goroutine
// that flips on it: a scratch allocated by one worker and flipped later by
// another puts two workers' hot arrays on neighbouring cache lines. The
// zero value is ready.
type Scratch struct {
	e    engine
	init []bool
	rng  *rand.Rand
	own  mrf.Postings
}

// seed returns the scratch RNG re-seeded; the stream is the one
// rand.New(rand.NewSource(seed)) yields.
func (sc *Scratch) seed(seed int64) *rand.Rand {
	if sc.rng == nil {
		sc.rng = rand.New(rand.NewSource(seed))
	} else {
		sc.rng.Seed(seed)
	}
	return sc.rng
}

// index builds m's occurrence index into the scratch's own buffer — for
// networks whose clause set is per-call or not known to be immutable.
func (sc *Scratch) index(m *mrf.MRF) *mrf.Postings {
	sc.own.Build(m.NumAtoms, m.Clauses)
	return &sc.own
}

// engineFor sizes the scratch arrays for m and returns the engine over them.
// reset must run before any other use: the arrays hold the previous
// search's values.
func (sc *Scratch) engineFor(m *mrf.MRF, post *mrf.Postings, hardW float64) *engine {
	e := &sc.e
	e.m, e.post, e.hardW, e.fixedExtra = m, post, hardW, m.FixedCost
	e.state = resize(e.state, m.NumAtoms+1)
	e.satCount = resize(e.satCount, len(m.Clauses))
	e.violPos = resize(e.violPos, len(m.Clauses))
	return e
}

// randomStart draws a random assignment over atoms 1..n into the scratch's
// start-state buffer: one rng.Intn(2) per atom, in atom order.
func (sc *Scratch) randomStart(n int, rng *rand.Rand) []bool {
	sc.init = resize(sc.init, n+1)
	sc.init[0] = false
	for i := 1; i <= n; i++ {
		sc.init[i] = rng.Intn(2) == 0
	}
	return sc.init
}

// resize returns s with length n, reallocating only when it must grow;
// contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// weightOf returns the guided |weight| of a clause.
func (e *engine) weightOf(ci int32) float64 {
	w := e.m.Clauses[ci].Weight
	if math.IsInf(w, 0) {
		return e.hardW
	}
	return math.Abs(w)
}

// isViolated evaluates the violation status from the satisfied count.
func (e *engine) isViolated(ci int32) bool {
	if e.m.Clauses[ci].Weight >= 0 {
		return e.satCount[ci] == 0
	}
	return e.satCount[ci] > 0
}

func (e *engine) addViol(ci int32) {
	if e.violPos[ci] >= 0 {
		return
	}
	e.violPos[ci] = int32(len(e.viol))
	e.viol = append(e.viol, ci)
	e.cost += e.weightOf(ci)
	if e.m.Clauses[ci].IsHard() {
		e.hardViol++
	} else {
		e.softCost += math.Abs(e.m.Clauses[ci].Weight)
	}
}

func (e *engine) removeViol(ci int32) {
	pos := e.violPos[ci]
	if pos < 0 {
		return
	}
	last := e.viol[len(e.viol)-1]
	e.viol[pos] = last
	e.violPos[last] = pos
	e.viol = e.viol[:len(e.viol)-1]
	e.violPos[ci] = -1
	e.cost -= e.weightOf(ci)
	if e.m.Clauses[ci].IsHard() {
		e.hardViol--
	} else {
		e.softCost -= math.Abs(e.m.Clauses[ci].Weight)
	}
}

// reset installs a state and rebuilds all counters.
func (e *engine) reset(state []bool) {
	copy(e.state, state)
	e.viol = e.viol[:0]
	e.cost = 0
	e.softCost = 0
	e.hardViol = 0
	for ci := range e.m.Clauses {
		e.violPos[ci] = -1
		cnt := int32(0)
		for _, l := range e.m.Clauses[ci].Lits {
			if e.state[mrf.Atom(l)] == mrf.Pos(l) {
				cnt++
			}
		}
		e.satCount[ci] = cnt
	}
	for ci := range e.m.Clauses {
		if e.isViolated(int32(ci)) {
			e.addViol(int32(ci))
		}
	}
}

// flip toggles an atom and updates all clause counters incrementally.
func (e *engine) flip(a mrf.AtomID) {
	toTrue := !e.state[a]
	e.state[a] = toTrue
	gain, lose := e.post.Pos(a), e.post.Neg(a)
	if !toTrue {
		gain, lose = lose, gain
	}
	for _, ci := range gain {
		e.satCount[ci]++
		if e.isViolated(ci) {
			e.addViol(ci)
		} else {
			e.removeViol(ci)
		}
	}
	for _, ci := range lose {
		e.satCount[ci]--
		if e.isViolated(ci) {
			e.addViol(ci)
		} else {
			e.removeViol(ci)
		}
	}
}

// deltaCost returns the guided-cost change of flipping atom a, without
// performing the flip.
func (e *engine) deltaCost(a mrf.AtomID) float64 {
	toTrue := !e.state[a]
	gain, lose := e.post.Pos(a), e.post.Neg(a)
	if !toTrue {
		gain, lose = lose, gain
	}
	delta := 0.0
	for _, ci := range gain {
		c := &e.m.Clauses[ci]
		if c.Weight >= 0 {
			if e.satCount[ci] == 0 {
				delta -= e.weightOf(ci) // becomes satisfied
			}
		} else if e.satCount[ci] == 0 {
			delta += e.weightOf(ci) // becomes satisfied => violated
		}
	}
	for _, ci := range lose {
		c := &e.m.Clauses[ci]
		if c.Weight >= 0 {
			if e.satCount[ci] == 1 {
				delta += e.weightOf(ci) // becomes unsatisfied
			}
		} else if e.satCount[ci] == 1 {
			delta -= e.weightOf(ci) // becomes unsatisfied => not violated
		}
	}
	return delta
}

// reportedCost is the true cost of the current state (hard violations are
// +Inf), including the MRF's fixed evidence cost.
func (e *engine) reportedCost() float64 {
	if e.hardViol > 0 {
		return math.Inf(1)
	}
	return e.softCost + e.fixedExtra
}

// WalkSAT runs Algorithm 1 on the MRF. A canceled context stops the search
// early (polled every few hundred flips); the returned Result then holds the
// best state found so far — callers that need the typed error wrap the stop
// with Canceled(ctx) themselves.
//
// WalkSAT indexes m privately on every call, so m may change between calls;
// searches over an epoch's immutable local networks go through RunComponent,
// which shares one index per network.
func WalkSAT(ctx context.Context, m *mrf.MRF, opts Options) *Result {
	var sc Scratch
	return walkSAT(ctx, m, sc.index(m), opts, &sc)
}

// walkSAT is WalkSAT over a given occurrence index of m (shared or built
// into sc) with its mutable state in sc. The result owns its Best.
func walkSAT(ctx context.Context, m *mrf.MRF, post *mrf.Postings, opts Options, sc *Scratch) *Result {
	opts = opts.withDefaults()
	rng := sc.seed(opts.Seed)
	e := sc.engineFor(m, post, opts.HardWeight)

	res := &Result{HitFlips: -1, BestCost: math.Inf(1)}
	start := time.Now()
	var best []bool

	for try := 0; try < opts.MaxTries && ctx.Err() == nil; try++ {
		init := opts.InitState
		if try != 0 || init == nil {
			init = sc.randomStart(m.NumAtoms, rng)
		}
		e.reset(init)
		res.Restarts = try

		if c := e.reportedCost(); c < res.BestCost {
			res.BestCost = c
			best = append(best[:0], e.state...)
			if opts.Tracker != nil {
				opts.Tracker.Record(res.BestCost)
			}
		}
		if !math.IsNaN(opts.TargetCost) && res.BestCost <= opts.TargetCost && res.HitFlips < 0 {
			res.HitFlips = res.Flips
		}
		if res.HitFlips >= 0 && !math.IsNaN(opts.TargetCost) {
			break
		}

		for flip := int64(0); flip < opts.MaxFlips; flip++ {
			if flip&ctxCheckMask == 0 && ctx.Err() != nil {
				break
			}
			if len(e.viol) == 0 {
				break // zero-cost world (w.r.t. guided cost): optimal
			}
			ci := e.viol[rng.Intn(len(e.viol))]
			lits := e.m.Clauses[ci].Lits
			var a mrf.AtomID
			if rng.Float64() <= opts.NoisyP {
				a = mrf.Atom(lits[rng.Intn(len(lits))])
			} else {
				bestDelta := math.Inf(1)
				for _, l := range lits {
					cand := mrf.Atom(l)
					if d := e.deltaCost(cand); d < bestDelta {
						bestDelta = d
						a = cand
					}
				}
			}
			e.flip(a)
			res.Flips++
			if c := e.reportedCost(); c < res.BestCost {
				res.BestCost = c
				best = append(best[:0], e.state...)
				if opts.Tracker != nil {
					opts.Tracker.Record(res.BestCost)
				}
			}
			if !math.IsNaN(opts.TargetCost) && res.BestCost <= opts.TargetCost {
				if res.HitFlips < 0 {
					res.HitFlips = res.Flips
				}
				break
			}
		}
		if res.HitFlips >= 0 && !math.IsNaN(opts.TargetCost) {
			break
		}
	}
	res.Best = best
	res.Elapsed = time.Since(start)
	return res
}
