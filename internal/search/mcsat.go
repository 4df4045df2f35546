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
	return mcsat(ctx, m, opts, &sc)
}

// mcsat is one MC-SAT chain with all of its search state in sc: the
// selected clause set differs every round, so each round re-indexes it into
// the scratch's own buffers instead of allocating an index per sample.
func mcsat(ctx context.Context, m *mrf.MRF, opts MCSATOptions, sc *Scratch) ([]float64, error) {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))

	// Initial state: satisfy hard clauses via WalkSAT.
	init := walkSAT(ctx, m, sc.index(m), Options{MaxFlips: opts.SampleSATFlips, MaxTries: 3, Seed: opts.Seed}, sc)
	if ctx.Err() != nil {
		return make([]float64, m.NumAtoms+1), Canceled(ctx)
	}
	if math.IsInf(init.BestCost, 1) && hasHard(m) {
		return nil, fmt.Errorf("search: MC-SAT could not satisfy hard clauses")
	}
	state := init.Best

	counts := make([]float64, m.NumAtoms+1)
	total := 0
	sub := mrf.New(m.NumAtoms)
	var sel []mrf.Clause // the round's clause subset M, reused across rounds

	for round := 0; round < opts.Samples+opts.BurnIn && ctx.Err() == nil; round++ {
		// Select clause subset M. For a positive clause satisfied by the
		// current state, include it with p = 1 - exp(-w): the next state
		// must keep it satisfied. For a negative clause FALSIFIED by the
		// current state, include its requirement to stay falsified with
		// p = 1 - exp(-|w|); staying falsified means every literal's
		// negation holds, so we add each negated literal as a unit clause.
		sel = sel[:0]
		for _, c := range m.Clauses {
			w := c.Weight
			sat := c.SatisfiedBy(state)
			switch {
			case c.IsHard():
				if w > 0 {
					sel = append(sel, mrf.Clause{Weight: 1, Lits: c.Lits})
				}
			case w > 0 && sat:
				if rng.Float64() < 1-math.Exp(-w) {
					sel = append(sel, mrf.Clause{Weight: 1, Lits: c.Lits})
				}
			case w < 0 && !sat:
				if rng.Float64() < 1-math.Exp(w) {
					for _, l := range c.Lits {
						sel = append(sel, mrf.Clause{Weight: 1, Lits: []mrf.Lit{-l}})
					}
				}
			}
		}
		sub.Clauses = sel
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
// sampled in parallel by up to parallelism workers.
//
// A canceled context returns ErrCanceled with the marginals of the
// components that finished sampling (unfinished components report zeros).
func MCSATComponents(ctx context.Context, parent *mrf.MRF, comps []*mrf.Component, opts MCSATOptions, parallelism int) ([]float64, error) {
	if parallelism < 1 {
		parallelism = 1
	}
	probs := make([]float64, parent.NumAtoms+1)
	var mu sync.Mutex
	var firstErr error
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc Scratch // this worker's, for all of its chains
			for idx := range work {
				if ctx.Err() != nil {
					continue // drain; cancellation is reported below
				}
				comp := comps[idx]
				local, err := RunComponentMCSAT(ctx, comp, idx, opts, &sc)
				mu.Lock()
				if err != nil && !errors.Is(err, ErrCanceled) && firstErr == nil {
					firstErr = err
				}
				if local != nil {
					for i := 1; i <= comp.MRF.NumAtoms; i++ {
						probs[comp.GlobalAtom[i]] = local[i]
					}
				}
				mu.Unlock()
			}
		}()
	}
dispatch:
	for i := range comps {
		select {
		case work <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(work)
	wg.Wait()
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
// seed and the component's canonical index. Like search.RunComponent it
// is the distribution contract: MCSATComponents and the remote worker's
// marginal shard execution call exactly this function, so the sampled
// chain for a component is identical wherever it runs. The returned
// slice is the component-local 1-based marginal vector. sc holds the chain's
// search state and is the caller's to reuse for its next component, one
// goroutine at a time.
func RunComponentMCSAT(ctx context.Context, comp *mrf.Component, idx int, opts MCSATOptions, sc *Scratch) ([]float64, error) {
	o := opts
	o.Seed = opts.Seed + int64(idx)*6151
	return mcsat(ctx, comp.MRF, o, sc)
}

func hasHard(m *mrf.MRF) bool {
	for _, c := range m.Clauses {
		if c.IsHard() {
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
		lits := e.m.Clauses[ci].Lits
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
