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
	// only; cut clauses live in Partitioning.Cut). It may be a window into
	// the parent's arrays or the one network every part of equal content
	// shares (see layout), so it is never modified.
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
	// renumbered is Source.Lits with each internal clause's literals in
	// local ids, which window parts view (see layout); nil when none does.
	renumbered []mrf.Lit
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
	pt := &Partitioning{Source: m}
	pt.PartOf, pt.Parts = greedyParts(m, beta)
	pt.layout()
	return pt
}

// greedyParts runs Algorithm 3's merges and returns each atom's part and
// the parts, ordered by smallest atom, with only their atoms set.
func greedyParts(m *mrf.MRF, beta int) ([]int32, []*Part) {
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
	var sizes []int
	for a := int32(1); a <= int32(n); a++ {
		r := uf.Find(a)
		pi, ok := partIdx[r]
		if !ok {
			pi = int32(len(sizes))
			partIdx[r] = pi
			sizes = append(sizes, 0)
		}
		sizes[pi]++
		partOf[a] = pi
	}
	parts := make([]*Part, len(sizes))
	for pi, k := range sizes {
		parts[pi] = &Part{GlobalAtom: make([]mrf.AtomID, 1, k+1)}
	}
	for a := int32(1); a <= int32(n); a++ {
		p := parts[partOf[a]]
		p.GlobalAtom = append(p.GlobalAtom, a)
	}
	return partOf, parts
}

// layout gives each part its network: its internal clauses, in parent
// order and local ids, which scan finds in pt.Source.
//
// Parts of equal content (contents.same) share one network of exact size,
// built once for their class: a network of many small components repeats
// few distinct ones (IE's 6 000 have about 20), and each distinct network
// then carries its search index and fingerprint once. A part whose content
// no other part has is laid out alone. When every part's internal clauses
// are contiguous in the parent, as in a network folded component by
// component, such a part is a window: its W and Off are the parent's own,
// and its literals sit at the same positions of one copy of Source.Lits
// renumbered to local ids, which all such parts share — or of Source.Lits
// itself for the part over atoms 1..k, whose local ids are its global ones
// (a one-part network is held once). Otherwise these parts' clauses go into
// one arena per array, and only the part over atoms 1..k is still a window,
// when its own clauses are contiguous.
//
// A part that already has its network (one Repair reuses) keeps it, and a
// class takes the network its first such member has, unless the parts are
// windows: then every part is laid out anew.
func (pt *Partitioning) layout() {
	m := pt.Source
	np := len(pt.Parts)
	c := pt.scan()

	hash := make([]uint64, np)
	for pi := range hash {
		hash[pi] = c.hash(pi)
	}
	rep := classes(hash, c.same)
	members := make([]int32, np) // class sizes, at each class's first part
	for _, r := range rep {
		members[r]++
	}
	shared := make([]*mrf.MRF, np) // class networks, at each class's first part
	for pi, p := range pt.Parts {
		if c.windows {
			p.Local = nil
		} else if r := rep[pi]; members[r] > 1 && shared[r] == nil {
			shared[r] = p.Local
		}
	}

	inArena := make([]bool, np)
	var nc, no, nl int
	for pi, p := range pt.Parts {
		if r := rep[pi]; members[r] > 1 {
			if shared[r] == nil {
				shared[r] = c.network(pi)
			}
			p.Local = shared[r]
			continue
		}
		if p.Local != nil {
			continue
		}
		k := len(p.GlobalAtom) - 1
		p.Local = mrf.New(k)
		f, l := c.first[pi], c.last[pi]
		identity := k > 0 && int(p.GlobalAtom[k]) == k
		switch {
		case c.n[pi] == 0:
		case c.windows || identity && l-f+1 == c.n[pi]:
			end := m.Off[l+1]
			lits := m.Lits
			if !identity {
				if pt.renumbered == nil {
					pt.renumbered = make([]mrf.Lit, len(m.Lits))
				}
				lits = pt.renumbered
				for j := m.Off[f]; j < end; j++ {
					lits[j] = localLit(c.localID, m.Lits[j])
				}
			}
			p.Local.W = m.W[f : l+1 : l+1]
			p.Local.Off = m.Off[f : l+2 : l+2]
			p.Local.Lits = lits[:end:end]
		default:
			inArena[pi] = true
			nc += c.n[pi]
			no += c.n[pi] + 1
			nl += p.SizeUnits - k
		}
	}
	if nc == 0 {
		return
	}
	wArena, offArena, litArena := make([]float64, nc), make([]uint32, no), make([]mrf.Lit, nl)
	var buf []mrf.Lit
	for pi, p := range pt.Parts {
		if inArena[pi] {
			n, k := c.n[pi], p.SizeUnits-p.NumAtoms()
			p.Local.W, wArena = wArena[:0:n], wArena[n:]
			p.Local.Off, offArena = offArena[:1:n+1], offArena[n+1:]
			p.Local.Lits, litArena = litArena[:0:k], litArena[k:]
			buf = c.appendTo(p.Local, pi, buf)
		}
	}
}

// scan collects the cut, sets each part's SizeUnits and notes where the
// parent holds each part's internal clauses.
func (pt *Partitioning) scan() *contents {
	m := pt.Source
	np := len(pt.Parts)
	c := &contents{m: m, parts: pt.Parts, partOf: pt.PartOf, localID: make([]mrf.AtomID, m.NumAtoms+1),
		n: make([]int, np), first: make([]int, np), last: make([]int, np), windows: true}
	for _, p := range pt.Parts {
		p.SizeUnits = len(p.GlobalAtom) - 1
		for i, a := range p.GlobalAtom {
			c.localID[a] = mrf.AtomID(i)
		}
	}
	for ci, w := range m.W {
		lits := m.ClauseLits(ci)
		pi := partOfClause(pt.PartOf, lits)
		if pi < 0 {
			pt.Cut = append(pt.Cut, m.Clause(ci))
			pt.CutWeight += math.Abs(w)
			continue
		}
		if c.n[pi] == 0 {
			c.first[pi] = ci
		} else if c.last[pi] != ci-1 {
			c.windows = false
		}
		c.last[pi] = ci
		c.n[pi]++
		pt.Parts[pi].SizeUnits += len(lits)
	}
	if !c.windows {
		c.groupClauses()
	}
	return c
}

// localLit renumbers a parent literal to its part's local atom id.
func localLit(localID []mrf.AtomID, l mrf.Lit) mrf.Lit {
	ll := localID[mrf.Atom(l)]
	if !mrf.Pos(l) {
		ll = -ll
	}
	return ll
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
