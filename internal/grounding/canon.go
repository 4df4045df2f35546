package grounding

import (
	"cmp"
	"slices"
)

// The canonical order of raw groundings.
//
// Table aids are assigned in insertion order, so two TableSets encoding the
// same logical evidence — one built fresh, one patched by ApplyDelta, one
// restored from a snapshot — number the same ground atoms differently, and
// the SQL engine returns join rows in whatever order its plan, its heap and
// its hash-range split produce. One comparator over ts.Atom(aid) takes all of
// that out: literals order by (predicate id, argument constants, sign), each
// compared as uint32, and raws order literal by literal, a proper prefix
// first. Three things are sorted by it, and each has exactly one reader:
//
//   - Literals inside a raw (canonSet). diffRaws needs this: it pairs a
//     clause's old and new raws literal for literal, and an existential
//     clause's witnesses arrive in row order.
//   - Raws inside a set (canonSet, mergeCanon). The snapshot bytes need this:
//     a RawSet is encoded as it stands, and a hash-range split must retain
//     the set the unsplit query would. Equal raws are identical values, so the
//     sort needs no stability and a merge's ties no rule.
//   - Atoms (foldRaws; incAssembler keeps the same order by atomDescKey,
//     whose byte order is this comparator's). The assembled MRF needs only
//     this: the fold numbers atoms in this order and merges clauses by their
//     renumbered literals, and since a set's raws share one weight and equal
//     clauses meet in set order, every float sum is the same for any raw or
//     literal order. The MRF is a pure function of the multiset of raws —
//     which is what makes an incremental update bit-identical to a fresh
//     Ground of the merged evidence, and lets the top-down grounder skip
//     sorting altogether. Sorted sets make the fold cheaper, not different:
//     each one is a ready-made run for its merge.

// cmpAtoms orders the ground atoms of two aids by predicate id, then
// argument constants. Atoms of one predicate have one arity, so no
// descriptor is a proper prefix of another.
func cmpAtoms(ts *TableSet, x, y int64) int {
	if c := cmp.Compare(uint32(ts.atoms.pred[x]), uint32(ts.atoms.pred[y])); c != 0 {
		return c
	}
	b := ts.atoms.argsOf(y)
	for i, v := range ts.atoms.argsOf(x) {
		if c := cmp.Compare(uint32(v), uint32(b[i])); c != 0 {
			return c
		}
	}
	return 0
}

// cmpLits orders two literals (aid<<1|positive) by atom, negative first.
func cmpLits(ts *TableSet, x, y uint32) int {
	if x>>1 != y>>1 {
		if c := cmpAtoms(ts, int64(x>>1), int64(y>>1)); c != 0 {
			return c
		}
	}
	return cmp.Compare(x&1, y&1)
}

// cmpRaws orders two raws literal by literal, the shorter first.
func cmpRaws(ts *TableSet, a, b []uint32) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if c := cmpLits(ts, a[i], b[i]); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(a), len(b))
}

// canonSet puts one task's raws into canonical order: literals sorted in
// place (raws are short, so by insertion), then the raws gathered in sorted
// order into a set of exactly their size — it is the one that is retained.
func canonSet(ts *TableSet, s RawSet) RawSet {
	n := s.n()
	if n == 0 {
		return RawSet{weight: s.weight}
	}
	idx := make([]int32, n)
	for j := range idx {
		idx[j] = int32(j)
		raw := s.raw(j)
		for i := 1; i < len(raw); i++ {
			for k := i; k > 0 && cmpLits(ts, raw[k], raw[k-1]) < 0; k-- {
				raw[k], raw[k-1] = raw[k-1], raw[k]
			}
		}
	}
	slices.SortFunc(idx, func(a, b int32) int { return cmpRaws(ts, s.raw(int(a)), s.raw(int(b))) })
	out := RawSet{weight: s.weight, off: make([]uint32, 1, n+1), lits: make([]uint32, 0, len(s.lits))}
	for _, j := range idx {
		out.appendRaw(s.raw(int(j)))
	}
	return out
}

// mergeCanon merges one clause's canonical hash-range outputs into the
// canonical order of their union — what canonSet returns on the unsplit
// query's rows — again at exactly its size.
func mergeCanon(ts *TableSet, parts []RawSet) RawSet {
	if len(parts) == 1 {
		return parts[0]
	}
	raws, lits := 0, 0
	for _, p := range parts {
		raws += p.n()
		lits += len(p.lits)
	}
	out := RawSet{weight: parts[0].weight, off: make([]uint32, 1, raws+1), lits: make([]uint32, 0, lits)}
	heads := make([]int, len(parts))
	for out.n() < raws {
		best := -1
		for r, p := range parts {
			if heads[r] < p.n() && (best < 0 || cmpRaws(ts, p.raw(heads[r]), parts[best].raw(heads[best])) < 0) {
				best = r
			}
		}
		out.appendRaw(parts[best].raw(heads[best]))
		heads[best]++
	}
	return out
}
