package partition

import (
	"math"

	"tuffy/internal/mrf"
)

// This file implements the partitioning-granularity tradeoff of Appendix
// B.8: fine partitions speed up per-partition search (Theorem 3.1) but
// enlarge the cut, which slows the Gauss-Seidel scheme. The paper's
// baseline estimate for the benefit (or detriment) of a partitioning is
//
//	W = 2^{N/3} - T * |#cut clauses| / |E|
//
// where N is the number of components with positive lowest cost, T the
// number of WalkSAT steps in one Gauss-Seidel round, and |E| the total
// number of clauses.

// TradeoffInput carries the quantities of the B.8 formula.
type TradeoffInput struct {
	// PositiveOptParts estimates N: partitions whose optimal cost is
	// positive (those are the ones monolithic WalkSAT keeps breaking).
	PositiveOptParts int
	// StepsPerRound is T.
	StepsPerRound int64
	// CutClauses and TotalClauses size the cut penalty.
	CutClauses   int
	TotalClauses int
}

// Tradeoff evaluates the paper's W formula. Positive values predict that
// partitioning helps; negative values predict pure overhead. The exponent
// is clamped to keep the result finite for large N (any N above ~200
// already means "astronomically beneficial").
func Tradeoff(in TradeoffInput) float64 {
	if in.TotalClauses == 0 {
		return 0
	}
	exp := float64(in.PositiveOptParts) / 3
	if exp > 200 {
		exp = 200
	}
	benefit := math.Exp2(exp) - 1 // N=0 -> no benefit
	penalty := float64(in.StepsPerRound) * float64(in.CutClauses) / float64(in.TotalClauses)
	return benefit - penalty
}

// EstimatePositiveOptParts counts partitions whose lowest cost is provably
// positive by a cheap certificate: a partition containing a negative-weight
// clause together with a positive-weight unit clause on one of its atoms
// (the Example 1 pattern), or any pair of directly conflicting clauses.
// Exhaustive minimization is used for tiny partitions (<= maxExact atoms).
func EstimatePositiveOptParts(pt *Partitioning, maxExact int) int {
	n := 0
	for _, p := range pt.Parts {
		if p.Local.NumAtoms <= maxExact {
			if exhaustiveMinCost(p.Local) > 0 {
				n++
			}
			continue
		}
		if hasConflict(p.Local) {
			n++
		}
	}
	return n
}

// exhaustiveMinCost minimizes cost over all assignments (small MRFs only).
func exhaustiveMinCost(m *mrf.MRF) float64 {
	best := math.Inf(1)
	state := m.NewState()
	for mask := 0; mask < 1<<m.NumAtoms; mask++ {
		for i := 1; i <= m.NumAtoms; i++ {
			state[i] = mask&(1<<(i-1)) != 0
		}
		if c := m.Cost(state); c < best {
			best = c
			if best == 0 {
				return 0
			}
		}
	}
	return best
}

// hasConflict detects the cheap positive-cost certificate: a positive unit
// clause (a) and a negative clause containing a positively — satisfying one
// violates the other.
func hasConflict(m *mrf.MRF) bool {
	posUnit := make(map[mrf.AtomID]bool)
	for ci, w := range m.W {
		if lits := m.ClauseLits(ci); w > 0 && len(lits) == 1 && mrf.Pos(lits[0]) {
			posUnit[mrf.Atom(lits[0])] = true
		}
	}
	if len(posUnit) == 0 {
		return false
	}
	for ci, w := range m.W {
		if w >= 0 {
			continue
		}
		for _, l := range m.ClauseLits(ci) {
			if mrf.Pos(l) && posUnit[mrf.Atom(l)] {
				return true
			}
		}
	}
	return false
}

// ChooseBeta sweeps candidate partition bounds and returns the beta whose
// partitioning maximizes the B.8 tradeoff estimate. candidates are size
// bounds in Algorithm 3 units (0 = connected components only); stepsPerRound
// is the Gauss-Seidel budget T. Returns the chosen beta and its
// partitioning.
func ChooseBeta(m *mrf.MRF, candidates []int, stepsPerRound int64) (int, *Partitioning) {
	bestBeta := 0
	var bestPT *Partitioning
	bestW := math.Inf(-1)
	for _, beta := range candidates {
		pt := Algorithm3(m, beta)
		w := Tradeoff(TradeoffInput{
			PositiveOptParts: EstimatePositiveOptParts(pt, 10),
			StepsPerRound:    stepsPerRound,
			CutClauses:       pt.NumCut(),
			TotalClauses:     m.NumClauses(),
		})
		if w > bestW {
			bestW = w
			bestBeta = beta
			bestPT = pt
		}
	}
	return bestBeta, bestPT
}
