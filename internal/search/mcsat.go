package search

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"tuffy/internal/mrf"
)

// MCSATOptions configures marginal inference (Appendix A.5).
type MCSATOptions struct {
	// Samples is the number of MC-SAT sampling rounds.
	Samples int
	// BurnIn rounds are discarded before counting.
	BurnIn int
	// SampleSATFlips bounds each SampleSAT call.
	SampleSATFlips int64
	// SAProb is SampleSAT's probability of a simulated-annealing move (vs.
	// a WalkSAT move); Wei et al. use 0.5.
	SAProb float64
	// SATemp is the annealing temperature.
	SATemp float64
	Seed   int64
}

func (o MCSATOptions) withDefaults() MCSATOptions {
	if o.Samples == 0 {
		o.Samples = 100
	}
	if o.SampleSATFlips == 0 {
		o.SampleSATFlips = 10_000
	}
	if o.SAProb == 0 {
		o.SAProb = 0.5
	}
	if o.SATemp == 0 {
		o.SATemp = 0.5
	}
	return o
}

// MCSAT estimates the marginal probability of each atom being true using
// the MC-SAT algorithm [Poon & Domingos 2006]: starting from a state
// satisfying the hard clauses, each round samples a subset M of the clauses
// currently satisfied (each with probability 1 - e^{-|w|}; hard clauses
// always) and draws a near-uniform satisfying assignment of M with
// SampleSAT. Negative-weight clauses participate through their negation
// semantics: a round keeps them *unsatisfied*.
//
// A canceled context stops sampling at the next round boundary and returns
// ErrCanceled together with the marginals estimated from the samples
// collected so far (all-zero if no post-burn-in sample completed).
func MCSAT(ctx context.Context, m *mrf.MRF, opts MCSATOptions) ([]float64, error) {
	var sc Scratch
	return mcsat(ctx, m, sc.index(m), opts, &sc)
}

// mcsat is one MC-SAT chain with all of its search state in sc; post indexes
// m for the initial WalkSAT. The selected clause set differs every round, so
// each round re-indexes it into the scratch's own buffers instead of
// allocating an index per sample.
func mcsat(ctx context.Context, m *mrf.MRF, post *mrf.Postings, opts MCSATOptions, sc *Scratch) ([]float64, error) {
	opts = opts.withDefaults()

	// Initial state: satisfy hard clauses via WalkSAT.
	init := walkSAT(ctx, m, post, Options{MaxFlips: opts.SampleSATFlips, MaxTries: 3, Seed: opts.Seed}, sc)
	if ctx.Err() != nil {
		return make([]float64, m.NumAtoms+1), Canceled(ctx)
	}
	if math.IsInf(init.BestCost, 1) && hasHard(m) {
		return nil, fmt.Errorf("search: MC-SAT could not satisfy hard clauses")
	}
	state := init.Best
	// The chain's stream starts over at opts.Seed in the scratch RNG, which
	// the initial WalkSAT is done with.
	rng := sc.seed(opts.Seed)

	counts := make([]float64, m.NumAtoms+1)
	total := 0
	ch := &sc.mc
	ch.prepare(m)
	sub := &ch.sel
	sub.NumAtoms = m.NumAtoms
	keep := func(lits []mrf.Lit) { sub.Append(1, lits) }

	for round := 0; round < opts.Samples+opts.BurnIn && ctx.Err() == nil; round++ {
		sub.Truncate(0)
		ch.selectRound(m, state, rng, keep)
		if next := sampleSAT(ctx, sub, opts, rng, sc); next != nil {
			copy(state, next)
		}
		if round >= opts.BurnIn {
			total++
			for a := 1; a <= m.NumAtoms; a++ {
				if state[a] {
					counts[a]++
				}
			}
		}
	}
	probs := make([]float64, m.NumAtoms+1)
	if total > 0 {
		for a := 1; a <= m.NumAtoms; a++ {
			probs[a] = counts[a] / float64(total)
		}
	}
	if ctx.Err() != nil {
		return probs, Canceled(ctx)
	}
	return probs, nil
}

// MCSATComponents runs MC-SAT independently on each connected component and
// merges the marginals. Because the joint distribution factorizes exactly
// over components (cost additivity, Section 3.3), this is not an
// approximation — and each chain mixes over an exponentially smaller state
// space, the marginal-inference analogue of Theorem 3.1. Components are
// sampled in parallel by up to parallelism workers, or in index order on
// the caller's goroutine at parallelism 1.
//
// A canceled context returns ErrCanceled with the marginals of the
// components that finished sampling (unfinished components report zeros).
func MCSATComponents(ctx context.Context, parent *mrf.MRF, comps []*mrf.Component, opts MCSATOptions, parallelism int) ([]float64, error) {
	// Capped at the component count, as in ComponentAware.
	parallelism = min(max(parallelism, 1), max(len(comps), 1))
	probs := make([]float64, parent.NumAtoms+1)
	var mu sync.Mutex
	var firstErr error
	eachComponent(ctx, len(comps), parallelism, func(idx int, sc *Scratch) {
		comp := comps[idx]
		local, err := RunComponentMCSAT(ctx, comp, idx, opts, sc)
		mu.Lock()
		defer mu.Unlock()
		if err != nil && !errors.Is(err, ErrCanceled) && firstErr == nil {
			firstErr = err
		}
		if local != nil {
			for i := 1; i <= comp.MRF.NumAtoms; i++ {
				probs[comp.GlobalAtom[i]] = local[i]
			}
		}
	})
	if firstErr != nil {
		return nil, firstErr
	}
	if ctx.Err() != nil {
		return probs, Canceled(ctx)
	}
	return probs, nil
}

// RunComponentMCSAT samples one component of a component-factorized
// marginal query, deriving the component's chain seed from the parent
// seed and the component's canonical index. Like RunComponent it is the
// parallelism contract: the sampled chain for a component is identical
// whichever of MCSATComponents' workers runs it. The returned
// slice is the component-local 1-based marginal vector. sc holds the chain's
// search state and is the caller's to reuse for its next component, one
// goroutine at a time.
func RunComponentMCSAT(ctx context.Context, comp *mrf.Component, idx int, opts MCSATOptions, sc *Scratch) ([]float64, error) {
	o := opts
	o.Seed = opts.Seed + int64(idx)*6151
	return mcsat(ctx, comp.MRF, comp.MRF.SharedPostings(), o, sc)
}

// chain is what one MC-SAT chain computes once over its network instead of
// every round: each clause's selection odds 1 - e^{-|w|} (for w < 0 that is
// the policy's 1 - e^{w} bit for bit, since -|w| == w), the negated
// literals of its negative soft clauses in clause order, which a selected
// one contributes as unit clauses, and the round's selected subset M (a
// network whose arrays every round reuses).
type chain struct {
	odds []float64
	neg  []mrf.Lit
	sel  mrf.MRF
}

// prepare fills the chain's odds and negated literals for m.
func (ch *chain) prepare(m *mrf.MRF) {
	ch.odds = resize(ch.odds, m.NumClauses())
	ch.neg = ch.neg[:0]
	for ci, w := range m.W {
		ch.odds[ci] = 1 - math.Exp(-math.Abs(w))
		if w < 0 && !m.IsHard(ci) {
			for _, l := range m.ClauseLits(ci) {
				ch.neg = append(ch.neg, -l)
			}
		}
	}
}

// selectRound draws one round's clause subset M under state and hands each
// selected clause's literals to keep, in clause order. Every positive hard
// clause is selected. A positive soft clause the state satisfies is
// selected with its odds: the next state must keep it satisfied. A negative
// soft clause the state falsifies is selected with its odds, as one unit
// clause per negated literal: staying falsified means every literal's
// negation holds. rng draws once per such soft clause.
func (ch *chain) selectRound(m *mrf.MRF, state []bool, rng *rand.Rand, keep func(lits []mrf.Lit)) {
	k := 0 // start of the current negative clause's literals in ch.neg
	for ci := range m.W {
		c := m.Clause(ci)
		switch w := c.Weight; {
		case c.IsHard():
			if w > 0 {
				keep(c.Lits)
			}
		case w > 0:
			if c.SatisfiedBy(state) && rng.Float64() < ch.odds[ci] {
				keep(c.Lits)
			}
		case w < 0:
			units := ch.neg[k : k+len(c.Lits)]
			k += len(c.Lits)
			if !c.SatisfiedBy(state) && rng.Float64() < ch.odds[ci] {
				for i := range units {
					keep(units[i : i+1 : i+1])
				}
			}
		}
	}
}

func hasHard(m *mrf.MRF) bool {
	for ci := range m.W {
		if m.IsHard(ci) {
			return true
		}
	}
	return false
}

// SampleSAT draws a near-uniform satisfying assignment of the clause set
// (all clauses treated as mandatory) by mixing WalkSAT moves with simulated
// annealing moves [Wei, Erenrich, Selman 2004]. It returns (state, true)
// when all clauses are satisfied within the flip budget, or (init, false)
// otherwise — including when the context cancels the walk early. The walk
// starts from a random assignment drawn from rng.
func SampleSAT(ctx context.Context, m *mrf.MRF, init []bool, opts MCSATOptions, rng *rand.Rand) ([]bool, bool) {
	var sc Scratch
	state := sampleSAT(ctx, m, opts, rng, &sc)
	if state == nil {
		return init, false
	}
	if m.NumAtoms == 0 {
		return init, true
	}
	return state, true
}

// sampleSAT is SampleSAT with its state in sc, indexing m into the scratch's
// own buffers. It returns the satisfying assignment — the scratch's state
// array, valid until sc's next use — or nil when none was found.
func sampleSAT(ctx context.Context, m *mrf.MRF, opts MCSATOptions, rng *rand.Rand, sc *Scratch) []bool {
	opts = opts.withDefaults()
	e := sc.engineFor(m, sc.index(m), 1)
	e.reset(sc.randomStart(m.NumAtoms, rng))
	if m.NumAtoms == 0 {
		return e.state
	}
	for flip := int64(0); flip < opts.SampleSATFlips; flip++ {
		if flip&ctxCheckMask == 0 && ctx.Err() != nil {
			return nil
		}
		if len(e.viol) == 0 {
			return e.state
		}
		if rng.Float64() < opts.SAProb {
			// Simulated annealing move on a random atom.
			a := mrf.AtomID(1 + rng.Intn(m.NumAtoms))
			delta := e.deltaCost(a)
			if delta <= 0 || rng.Float64() < math.Exp(-delta/opts.SATemp) {
				e.flip(a)
			}
			continue
		}
		// WalkSAT move.
		ci := e.viol[rng.Intn(len(e.viol))]
		lits := e.clause(ci)
		var a mrf.AtomID
		if rng.Float64() <= 0.5 {
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
	}
	return nil
}
