// Package partition implements Section 3.3/3.4 of the Tuffy paper: the
// greedy MRF partitioning algorithm (Algorithm 3 in Appendix B.7), cut-size
// accounting, and the First Fit Decreasing batch loader that groups
// partitions under a memory budget (the bin-packing formulation of
// Section 3.3).
package partition

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"tuffy/internal/mrf"
)

// Part is one partition: a component-like sub-MRF holding the clauses fully
// inside the partition, plus the atom mapping to the parent MRF.
type Part struct {
	// Local is the sub-MRF over the partition's atoms (internal clauses
	// only; cut clauses live in Partitioning.Cut).
	Local *mrf.MRF
	// GlobalAtom maps local atom id -> parent atom id (index 0 unused).
	GlobalAtom []mrf.AtomID
	// SizeUnits is the partition size in Algorithm 3's units (atoms +
	// literals of assigned clauses).
	SizeUnits int
}

// Bytes estimates the in-memory footprint of searching this partition.
func (p *Part) Bytes() int64 { return p.Local.ComputeStats().SearchBytes }

// NumAtoms returns the number of atoms in the partition.
func (p *Part) NumAtoms() int { return p.Local.NumAtoms }

// Partitioning is the output of Algorithm 3.
type Partitioning struct {
	Parts []*Part
	// PartOf maps parent atom id -> index into Parts (index 0 unused).
	PartOf []int32
	// Cut holds the clauses spanning two or more partitions, in parent
	// atom ids.
	Cut []mrf.Clause
	// CutWeight is the total |w| of cut clauses.
	CutWeight float64
	// Source is the parent MRF.
	Source *mrf.MRF
}

// NumCut returns the number of cut clauses.
func (pt *Partitioning) NumCut() int { return len(pt.Cut) }

// Algorithm3 greedily partitions the MRF with partition size bound beta
// (in size units: atoms + literals). Clauses are scanned in descending
// absolute weight; a clause's atoms are merged into one partition unless the
// merged size would exceed beta — high-weight clauses are thus kept inside
// partitions and the (heuristically minimized) weighted cut consists of
// lower-weight clauses. With beta = +Inf (or beta <= 0) the result is
// exactly the connected components of the MRF.
func Algorithm3(m *mrf.MRF, beta int) *Partitioning {
	n := m.NumAtoms
	uf := mrf.NewUnionFind(n)
	// size[root] = atoms + assigned literals in the merged set.
	size := make([]int64, n+1)
	for i := 1; i <= n; i++ {
		size[i] = 1
	}
	bound := int64(beta)
	if beta <= 0 {
		bound = math.MaxInt64
	}

	order := make([]int, m.NumClauses())
	for i := range order {
		order[i] = i
	}
	// Without a bound every clause merges, and the connected components are
	// the same in any order: only a bounded run needs the weight order.
	if beta > 0 {
		sort.SliceStable(order, func(a, b int) bool {
			return math.Abs(m.W[order[a]]) > math.Abs(m.W[order[b]])
		})
	}

	var roots []int32 // distinct roots the current clause touches, reused
	for _, ci := range order {
		lits := m.ClauseLits(ci)
		// Compute the size of the union of all roots touched by the clause.
		roots = roots[:0]
		var total int64
		for _, l := range lits {
			if r := uf.Find(mrf.Atom(l)); !slices.Contains(roots, r) {
				roots = append(roots, r)
				total += size[r]
			}
		}
		total += int64(len(lits)) // the clause's literals count toward size
		if total > bound && len(roots) > 1 {
			continue // merging would exceed the bound; leave clause cut
		}
		if total > bound {
			// Single-root clause already over budget: the clause stays
			// internal (a partition can't be split below one component of
			// forced merges); still account its literals.
			size[roots[0]] += int64(len(lits))
			continue
		}
		for _, r := range roots[1:] {
			uf.Union(roots[0], r)
		}
		size[uf.Find(roots[0])] = total
	}

	// Build partitions from union-find roots.
	partIdx := make(map[int32]int32)
	partOf := make([]int32, n+1)
	var atomsPerPart [][]mrf.AtomID
	for a := int32(1); a <= int32(n); a++ {
		r := uf.Find(a)
		pi, ok := partIdx[r]
		if !ok {
			pi = int32(len(atomsPerPart))
			partIdx[r] = pi
			atomsPerPart = append(atomsPerPart, nil)
		}
		atomsPerPart[pi] = append(atomsPerPart[pi], a)
		partOf[a] = pi
	}

	pt := &Partitioning{PartOf: partOf, Source: m}
	localID := make([]mrf.AtomID, n+1)
	for _, atoms := range atomsPerPart {
		p := &Part{Local: mrf.New(len(atoms)), GlobalAtom: make([]mrf.AtomID, len(atoms)+1)}
		for i, a := range atoms {
			localID[a] = mrf.AtomID(i + 1)
			p.GlobalAtom[i+1] = a
		}
		p.SizeUnits = len(atoms)
		pt.Parts = append(pt.Parts, p)
	}
	// Assign clauses: internal when all atoms share a partition, else cut.
	// A first pass sizes each part, and all parts' clauses then go into one
	// arena per array. The part holding atoms 1..k, whose local ids are its
	// global ones, is instead a view into m's arrays when its clauses are
	// contiguous there — the whole network, when it is one part.
	nClauses := make([]int, len(pt.Parts))
	first, last := -1, -1 // clause range of part 0
	for ci := range m.W {
		lits := m.ClauseLits(ci)
		if pi := partOfClause(partOf, lits); pi >= 0 {
			nClauses[pi]++
			pt.Parts[pi].SizeUnits += len(lits)
			if pi == 0 {
				last = ci
				if first < 0 {
					first = ci
				}
			}
		}
	}
	view := -1
	if n > 0 && nClauses[0] > 0 && last-first+1 == nClauses[0] &&
		int(pt.Parts[0].GlobalAtom[pt.Parts[0].NumAtoms()]) == pt.Parts[0].NumAtoms() {
		view = 0
		p := pt.Parts[0]
		end := m.Off[last+1]
		p.Local.W = m.W[first : last+1 : last+1]
		p.Local.Off = m.Off[first : last+2 : last+2]
		p.Local.Lits = m.Lits[:end:end]
	}
	var nc, no, nl int
	for pi, p := range pt.Parts {
		if pi != view && nClauses[pi] > 0 {
			nc += nClauses[pi]
			no += nClauses[pi] + 1
			nl += p.SizeUnits - p.NumAtoms()
		}
	}
	wArena, offArena, litArena := make([]float64, nc), make([]uint32, no), make([]mrf.Lit, nl)
	for pi, p := range pt.Parts {
		if pi == view || nClauses[pi] == 0 {
			continue
		}
		n, k := nClauses[pi], p.SizeUnits-p.NumAtoms()
		p.Local.W, wArena = wArena[:0:n], wArena[n:]
		p.Local.Off, offArena = offArena[:1:n+1], offArena[n+1:]
		p.Local.Lits, litArena = litArena[:0:k], litArena[k:]
	}
	var local []mrf.Lit
	for ci, w := range m.W {
		lits := m.ClauseLits(ci)
		pi := partOfClause(partOf, lits)
		if pi < 0 {
			pt.Cut = append(pt.Cut, m.Clause(ci))
			pt.CutWeight += math.Abs(w)
			continue
		}
		if int(pi) == view {
			continue
		}
		local = local[:0]
		for _, l := range lits {
			ll := localID[mrf.Atom(l)]
			if !mrf.Pos(l) {
				ll = -ll
			}
			local = append(local, ll)
		}
		pt.Parts[pi].Local.Append(w, local)
	}
	return pt
}

// partOfClause returns the part holding every atom of a clause, or -1 when
// the clause is cut.
func partOfClause(partOf []int32, lits []mrf.Lit) int32 {
	pi := partOf[mrf.Atom(lits[0])]
	for _, l := range lits[1:] {
		if partOf[mrf.Atom(l)] != pi {
			return -1
		}
	}
	return pi
}

// ExtractState copies the partition's atoms out of a global assignment.
func (p *Part) ExtractState(global []bool) []bool {
	local := p.Local.NewState()
	for i := 1; i <= p.Local.NumAtoms; i++ {
		local[i] = global[p.GlobalAtom[i]]
	}
	return local
}

// ProjectState writes the partition's local assignment into the global one.
func (p *Part) ProjectState(local, global []bool) {
	for i := 1; i <= p.Local.NumAtoms; i++ {
		global[p.GlobalAtom[i]] = local[i]
	}
}

// Batch is one group of partitions loaded together (Section 3.3's batch
// data loading); the sum of byte sizes fits the memory budget.
type Batch struct {
	PartIdx []int
	Bytes   int64
}

// FirstFitDecreasing packs partitions into the fewest batches such that no
// batch exceeds budgetBytes, using the classic FFD heuristic the paper
// cites [26]. Oversized single partitions get their own batch (the caller
// falls back to in-RDBMS search for those).
func FirstFitDecreasing(parts []*Part, budgetBytes int64) []Batch {
	type sized struct {
		idx   int
		bytes int64
	}
	items := make([]sized, len(parts))
	for i, p := range parts {
		items[i] = sized{idx: i, bytes: p.Bytes()}
	}
	sort.SliceStable(items, func(a, b int) bool { return items[a].bytes > items[b].bytes })
	var batches []Batch
	for _, it := range items {
		placed := false
		for bi := range batches {
			if batches[bi].Bytes+it.bytes <= budgetBytes {
				batches[bi].PartIdx = append(batches[bi].PartIdx, it.idx)
				batches[bi].Bytes += it.bytes
				placed = true
				break
			}
		}
		if !placed {
			batches = append(batches, Batch{PartIdx: []int{it.idx}, Bytes: it.bytes})
		}
	}
	return batches
}

// Validate checks partition invariants: every atom in exactly one part, and
// every clause either internal or in the cut. Used by tests.
func (pt *Partitioning) Validate() error {
	n := pt.Source.NumAtoms
	seen := make([]bool, n+1)
	for pi, p := range pt.Parts {
		for i := 1; i <= p.Local.NumAtoms; i++ {
			a := p.GlobalAtom[i]
			if a < 1 || int(a) > n {
				return fmt.Errorf("part %d: atom %d out of range", pi, a)
			}
			if seen[a] {
				return fmt.Errorf("atom %d in two partitions", a)
			}
			seen[a] = true
			if pt.PartOf[a] != int32(pi) {
				return fmt.Errorf("PartOf[%d] = %d, want %d", a, pt.PartOf[a], pi)
			}
		}
	}
	for a := 1; a <= n; a++ {
		if !seen[a] {
			return fmt.Errorf("atom %d in no partition", a)
		}
	}
	internal := 0
	for _, p := range pt.Parts {
		internal += p.Local.NumClauses()
	}
	if internal+len(pt.Cut) != pt.Source.NumClauses() {
		return fmt.Errorf("clause accounting: %d internal + %d cut != %d total",
			internal, len(pt.Cut), pt.Source.NumClauses())
	}
	return nil
}
