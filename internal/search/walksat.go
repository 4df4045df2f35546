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
	off        []uint32      // m.Off, and
	lits       []mrf.Lit     // m.Lits, held here for the flip loop
	post       *mrf.Postings // atom -> clauses, positive and negated
	rows       []clauseRow   // per clause, filled once per search
	state      []bool
	satCount   []int32
	viol       []int32 // violated clause ids (positions tracked below)
	violPos    []int32 // clause -> index in viol, -1 if absent
	hardViol   int
	softCost   float64
	fixedExtra float64 // from MRF.FixedCost
}

// clauseRow is a clause as the flip kernel reads it: the guided weight
// (the search's hardW for a hard clause, |w| otherwise) and the two flags
// that say what a violation means and where it is counted. The rows depend
// on hardW, which differs between MAP and SampleSAT searches of one
// network, so they live in the scratch, never on the mrf.MRF.
type clauseRow struct {
	w    float64
	neg  bool // negative weight: violated while satisfied
	hard bool
}

// Scratch is the mutable half of a search: the engine's per-atom and
// per-clause arrays (the clause table among them), the random start-state
// buffer, the RNG, a Postings buffer for networks that have no shared
// index, and an MC-SAT chain's selection tables. Each worker goroutine of a
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
	mc   chain // MC-SAT's per-chain tables; see chain
}

// seed returns the scratch RNG re-seeded; the stream is the one math/rand
// yields for seed (see source).
func (sc *Scratch) seed(seed int64) *rand.Rand {
	if sc.rng == nil {
		sc.rng = rand.New(newSource(seed))
	} else {
		sc.rng.Seed(seed)
	}
	return sc.rng
}

// index builds m's occurrence index into the scratch's own buffer — for
// networks whose clause set is per-call or not known to be immutable.
func (sc *Scratch) index(m *mrf.MRF) *mrf.Postings {
	sc.own.Build(m)
	return &sc.own
}

// engineFor sizes the scratch arrays for m and fills its clause table with
// hardW as the hard clauses' guided weight. reset must run before any other
// use: the other arrays hold the previous search's values.
func (sc *Scratch) engineFor(m *mrf.MRF, post *mrf.Postings, hardW float64) *engine {
	e := &sc.e
	e.m, e.off, e.lits, e.post, e.fixedExtra = m, m.Off, m.Lits, post, m.FixedCost
	e.state = resize(e.state, m.NumAtoms+1)
	e.rows = resize(e.rows, m.NumClauses())
	e.satCount = resize(e.satCount, m.NumClauses())
	e.violPos = resize(e.violPos, m.NumClauses())
	for ci, w := range m.W {
		r := clauseRow{w: math.Abs(w), neg: w < 0}
		if math.IsInf(w, 0) {
			r.w, r.hard = hardW, true
		}
		e.rows[ci] = r
	}
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

// resize returns s with length n, reallocating only when it must grow (to
// at least twice the old capacity, so a scratch that meets networks of
// growing size reallocates O(log n) times); contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, max(n, 2*cap(s)))
	}
	return s[:n]
}

// clause returns clause ci's literals.
func (e *engine) clause(ci int32) []mrf.Lit { return e.lits[e.off[ci]:e.off[ci+1]] }

// addViol puts a clause that just became violated into the violated set
// and counts it as a hard violation or in the soft cost.
func (e *engine) addViol(ci int32) {
	e.violPos[ci] = int32(len(e.viol))
	e.viol = append(e.viol, ci)
	r := &e.rows[ci]
	if r.hard {
		e.hardViol++
	} else {
		e.softCost += r.w
	}
}

// removeViol is addViol's inverse, for a clause that just stopped being
// violated.
func (e *engine) removeViol(ci int32) {
	pos := e.violPos[ci]
	last := e.viol[len(e.viol)-1]
	e.viol[pos] = last
	e.violPos[last] = pos
	e.viol = e.viol[:len(e.viol)-1]
	e.violPos[ci] = -1
	r := &e.rows[ci]
	if r.hard {
		e.hardViol--
	} else {
		e.softCost -= r.w
	}
}

// reset installs a state and rebuilds all counters.
func (e *engine) reset(state []bool) {
	copy(e.state, state)
	e.viol = e.viol[:0]
	e.softCost = 0
	e.hardViol = 0
	for ci := range e.rows {
		e.violPos[ci] = -1
		cnt := int32(0)
		for _, l := range e.clause(int32(ci)) {
			if e.state[mrf.Atom(l)] == mrf.Pos(l) {
				cnt++
			}
		}
		e.satCount[ci] = cnt
		if (cnt == 0) != e.rows[ci].neg { // unsatisfied positive, satisfied negative
			e.addViol(int32(ci))
		}
	}
}

// flip toggles an atom and updates all clause counters incrementally. A
// clause's status changes only when its satisfied count crosses 0 <-> 1,
// so only those postings touch the violated set.
func (e *engine) flip(a mrf.AtomID) {
	toTrue := !e.state[a]
	e.state[a] = toTrue
	gain, lose := e.post.Pos(a), e.post.Neg(a)
	if !toTrue {
		gain, lose = lose, gain
	}
	for _, ci := range gain {
		e.satCount[ci]++
		if e.satCount[ci] == 1 { // becomes satisfied
			if e.rows[ci].neg {
				e.addViol(ci)
			} else {
				e.removeViol(ci)
			}
		}
	}
	for _, ci := range lose {
		e.satCount[ci]--
		if e.satCount[ci] == 0 { // becomes unsatisfied
			if e.rows[ci].neg {
				e.removeViol(ci)
			} else {
				e.addViol(ci)
			}
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
		if e.satCount[ci] == 0 { // becomes satisfied
			if r := &e.rows[ci]; r.neg {
				delta += r.w
			} else {
				delta -= r.w
			}
		}
	}
	for _, ci := range lose {
		if e.satCount[ci] == 1 { // becomes unsatisfied
			if r := &e.rows[ci]; r.neg {
				delta -= r.w
			} else {
				delta += r.w
			}
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
			lits := e.clause(ci)
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
