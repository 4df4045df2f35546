package search

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"tuffy/internal/mrf"
	"tuffy/internal/partition"
)

// GaussMCSAT estimates marginals on a partitioned MRF — the
// marginal-inference analogue of the Gauss-Seidel MAP scheme. Each MC-SAT
// round selects the clause subset M globally (the same policy as MCSAT) and
// then resamples the state partition by partition: color classes of the
// partition interaction graph run in sequence, partitions within a class
// concurrently, and each partition's share of M is projected onto it under
// the frozen assignment of the other partitions. When no selected clause is
// cut the round factorizes exactly over partitions (the distribution's cost
// additivity, Section 3.3); when cut clauses are selected the conditioning
// is the same approximation the MAP scheme makes. Results are bit-identical
// for every parallelism value: per-partition RNGs are seeded by (round,
// partition) and class results merge in ascending partition order. A
// canceled context stops at the next round boundary and returns ErrCanceled
// with the marginals of the samples collected so far. GaussMCSAT never
// mutates pt, so one Partitioning can serve concurrent queries.
func GaussMCSAT(ctx context.Context, pt *partition.Partitioning, opts MCSATOptions, parallelism int) ([]float64, error) {
	opts = opts.withDefaults()
	if parallelism < 1 {
		parallelism = 1
	}
	m := pt.Source

	// Initial state: satisfy hard clauses via WalkSAT, as in MCSAT.
	init := WalkSAT(ctx, m, Options{MaxFlips: opts.SampleSATFlips, MaxTries: 3, Seed: opts.Seed})
	if ctx.Err() != nil {
		return make([]float64, m.NumAtoms+1), Canceled(ctx)
	}
	if math.IsInf(init.BestCost, 1) && hasHard(m) {
		return nil, fmt.Errorf("search: MC-SAT could not satisfy hard clauses")
	}
	state := append([]bool(nil), init.Best...)

	coloring := pt.ColorParts()
	selRng := rand.New(newSource(opts.Seed + 104729))
	var ch chain // this chain's selection odds, computed once
	ch.prepare(m)

	// Hoisted setup: one global->local id map works for every partition at
	// once because partitions are disjoint; per-partition buffers are pooled
	// across rounds.
	localOf := make([]mrf.AtomID, m.NumAtoms+1)
	for _, p := range pt.Parts {
		for i := 1; i <= p.Local.NumAtoms; i++ {
			localOf[p.GlobalAtom[i]] = mrf.AtomID(i)
		}
	}
	// Each partition's sub-network receives its selected internal clauses
	// (local ids) during selection and the projections of its selected cut
	// clauses when it runs.
	type mcPart struct {
		cut  [][]mrf.Lit // selected clauses spanning out, global ids
		lits []mrf.Lit   // one clause's local literals, reused
		sub  *mrf.MRF
		next []bool
		ok   bool
	}
	parts := make([]*mcPart, len(pt.Parts))
	for pi, p := range pt.Parts {
		parts[pi] = &mcPart{sub: mrf.New(p.Local.NumAtoms)}
	}
	localLit := func(l mrf.Lit) mrf.Lit {
		ll := localOf[mrf.Atom(l)]
		if !mrf.Pos(l) {
			ll = -ll
		}
		return ll
	}

	// route adds one selected (mandatory) clause in global ids to the
	// partitions it touches.
	route := func(lits []mrf.Lit) {
		first := pt.PartOf[mrf.Atom(lits[0])]
		spansOut := false
		for _, l := range lits[1:] {
			if pt.PartOf[mrf.Atom(l)] != first {
				spansOut = true
				break
			}
		}
		if !spansOut {
			g := parts[first]
			g.lits = g.lits[:0]
			for _, l := range lits {
				g.lits = append(g.lits, localLit(l))
			}
			g.sub.Append(1, g.lits)
			return
		}
	next:
		for i, l := range lits {
			pi := pt.PartOf[mrf.Atom(l)]
			for _, k := range lits[:i] {
				if pt.PartOf[mrf.Atom(k)] == pi {
					continue next // this partition already has the clause
				}
			}
			parts[pi].cut = append(parts[pi].cut, lits)
		}
	}

	// runPart projects partition pi's selected clauses under the frozen
	// external state and draws a near-uniform satisfying assignment.
	runPart := func(round, pi int, sc *Scratch) {
		g := parts[pi]
		for _, lits := range g.cut {
			g.lits = g.lits[:0]
			satisfiedOutside := false
			for _, l := range lits {
				a := mrf.Atom(l)
				if pt.PartOf[a] == int32(pi) {
					g.lits = append(g.lits, localLit(l))
					continue
				}
				if state[a] == mrf.Pos(l) {
					satisfiedOutside = true
					break
				}
			}
			if satisfiedOutside || len(g.lits) == 0 {
				// Satisfied by the frozen exterior, or unsatisfiable within
				// this partition alone — either way no local constraint.
				continue
			}
			g.sub.Append(1, g.lits)
		}
		// The projected clause set is new every visit: index it into the
		// worker's scratch. The sample is copied out because the worker
		// reuses the scratch before this class merges.
		rng := sc.seed(opts.Seed + int64(round)*99991 + int64(pi)*6151)
		next := sampleSAT(ctx, g.sub, opts, rng, sc)
		if g.ok = next != nil; g.ok {
			g.next = append(g.next[:0], next...)
		}
	}

	var round int
	cw := newClassWorkers(coloring.Classes, parallelism, func(pi int, sc *Scratch) { runPart(round, pi, sc) })
	defer cw.stop()
	counts := make([]float64, m.NumAtoms+1)
	total := 0
	for ; round < opts.Samples+opts.BurnIn && ctx.Err() == nil; round++ {
		for _, g := range parts {
			g.sub.Truncate(0)
			g.cut = g.cut[:0]
		}
		// Global clause selection, exactly MCSAT's policy.
		ch.selectRound(m, state, selRng, route)

		for _, class := range coloring.Classes {
			cw.run(class)
			for _, pi := range class {
				if g := parts[pi]; g.ok {
					pt.Parts[pi].ProjectState(g.next, state)
				}
			}
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
