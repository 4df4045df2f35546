package partition

import (
	"slices"
	"sort"

	"tuffy/internal/mrf"
)

// Repair rebuilds an Algorithm-3 partitioning after an incremental re-ground,
// re-partitioning only the connected components the update touched and
// splicing the untouched components' parts through with remapped atom ids.
//
// Why this is sound: Algorithm 3 factorizes over connected components — every
// clause's atoms live in one component, so union-find merges, size accounting
// and the internal/cut decision for a component's clauses depend only on that
// component's clauses and their relative order in the |weight|-descending
// stable scan. For an untouched component (no atom flagged in touchedNew, see
// grounding.Reground) the clause multiset, the weights, and the relative
// clause order are all preserved, and the atom renumbering is monotone — so
// running Algorithm 3 on the whole new MRF would reproduce the old parts of
// that component exactly, up to the global renumbering. Repair therefore
// reuses those parts, re-runs Algorithm 3's merges only on the induced
// sub-MRFs of touched components, and rebuilds the global part order,
// PartOf and Cut, which are cheap scans. A reused part keeps its
// (immutable) local MRF when that is an arena's or one its class shares; a
// window into the old network is laid out anew from cur, as are all parts
// when cur's are windows. layout groups the parts by content as it does
// for Algorithm3, so the result is bit-identical to Algorithm3(cur, beta),
// down to which parts share a network; tests assert that equivalence.
func Repair(old *Partitioning, cur *mrf.MRF, newToOld []mrf.AtomID, touchedNew []bool, beta int) (pt *Partitioning, reusedParts int) {
	n := cur.NumAtoms
	uf := mrf.NewUnionFind(n)
	for ci := range cur.W {
		lits := cur.ClauseLits(ci)
		first := mrf.Atom(lits[0])
		for _, l := range lits[1:] {
			uf.Union(first, mrf.Atom(l))
		}
	}
	groups := make(map[int32][]mrf.AtomID)
	for a := int32(1); a <= int32(n); a++ {
		groups[uf.Find(a)] = append(groups[uf.Find(a)], a)
	}

	// Collect parts (reused or rebuilt) with their global atom ids, then
	// order them exactly as Algorithm3 does: by smallest global atom id.
	var parts []*Part
	for _, atoms := range groups {
		if oldParts, ok := reusableParts(old, atoms, newToOld, touchedNew); ok {
			// Old id -> new id within this component; the component-level
			// check guarantees the image exists and is monotone.
			toNew := make(map[mrf.AtomID]mrf.AtomID, len(atoms))
			for _, a := range atoms {
				toNew[newToOld[a]] = a
			}
			for _, op := range oldParts {
				ga := make([]mrf.AtomID, len(op.GlobalAtom))
				for i, a := range op.GlobalAtom[1:] {
					ga[i+1] = toNew[a]
				}
				local := op.Local
				if old.holds(local) {
					local = nil // laid out anew: a later epoch must not pin the old network
				}
				parts = append(parts, &Part{Local: local, GlobalAtom: ga})
				reusedParts++
			}
			continue
		}
		// Rebuild: run Algorithm 3 on the induced sub-MRF of this component.
		_, subParts := greedyParts(induceSub(cur, atoms), beta)
		for _, sp := range subParts {
			for i, a := range sp.GlobalAtom[1:] {
				sp.GlobalAtom[i+1] = atoms[a-1]
			}
			parts = append(parts, sp)
		}
	}

	sort.Slice(parts, func(a, b int) bool { return parts[a].GlobalAtom[1] < parts[b].GlobalAtom[1] })

	pt = &Partitioning{Parts: parts, Source: cur, PartOf: make([]int32, n+1)}
	for pi, p := range parts {
		for _, a := range p.GlobalAtom[1:] {
			pt.PartOf[a] = int32(pi)
		}
	}
	pt.layout()
	return pt, reusedParts
}

// holds reports whether local is one of pt's windows: a window's literals
// start where Source.Lits or the renumbered copy does.
func (pt *Partitioning) holds(local *mrf.MRF) bool {
	if len(local.Lits) == 0 {
		return false
	}
	l := &local.Lits[0]
	return len(pt.Source.Lits) > 0 && l == &pt.Source.Lits[0] ||
		len(pt.renumbered) > 0 && l == &pt.renumbered[0]
}

// reusableParts decides whether the new component over atoms (ascending new
// ids) is an untouched, order-preserving image of a set of old parts that
// exactly tile it, returning those parts.
func reusableParts(old *Partitioning, atoms []mrf.AtomID, newToOld []mrf.AtomID, touchedNew []bool) ([]*Part, bool) {
	prev := mrf.AtomID(0)
	distinct := make(map[int32]bool)
	total := 0
	for _, a := range atoms {
		o := newToOld[a]
		if touchedNew[a] || o == 0 || o <= prev || int(o) >= len(old.PartOf) {
			return nil, false
		}
		prev = o
		pi := old.PartOf[o]
		if !distinct[pi] {
			distinct[pi] = true
			total += old.Parts[pi].NumAtoms()
		}
	}
	// The old parts touched by the image must tile it exactly: no old part
	// may reach outside the image (a vanished or split component otherwise).
	if total != len(atoms) {
		return nil, false
	}
	parts := make([]*Part, 0, len(distinct))
	for pi := range distinct {
		parts = append(parts, old.Parts[pi])
	}
	sort.Slice(parts, func(a, b int) bool { return parts[a].GlobalAtom[1] < parts[b].GlobalAtom[1] })
	return parts, true
}

// induceSub builds the sub-MRF over atoms (ascending): local ids are ranks,
// clauses are the parent clauses fully inside the atom set, in parent order.
func induceSub(m *mrf.MRF, atoms []mrf.AtomID) *mrf.MRF {
	localOf := make([]mrf.AtomID, m.NumAtoms+1)
	for i, a := range atoms {
		localOf[a] = mrf.AtomID(i + 1)
	}
	var inside []int
	nlits := 0
	for ci := range m.W {
		lits := m.ClauseLits(ci)
		if !slices.ContainsFunc(lits, func(l mrf.Lit) bool { return localOf[mrf.Atom(l)] == 0 }) {
			inside = append(inside, ci)
			nlits += len(lits)
		}
	}
	sub := mrf.New(len(atoms))
	sub.Reserve(len(inside), nlits)
	var lits []mrf.Lit
	for _, ci := range inside {
		lits = lits[:0]
		for _, l := range m.ClauseLits(ci) {
			ll := localOf[mrf.Atom(l)]
			if !mrf.Pos(l) {
				ll = -ll
			}
			lits = append(lits, ll)
		}
		sub.Append(m.W[ci], lits)
	}
	return sub
}
