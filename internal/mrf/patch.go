package mrf

import (
	"sort"
	"strings"

	"tuffy/internal/mln"
)

// Epoch patching: the grounded MRF is immutable while an epoch serves
// queries, so "patching the MRF in place" is copy-on-write — a Patch holds
// the add / remove / reweight of ground clauses plus the atom renumbering
// between two grounds, and applying it to the old network reproduces the new
// one without re-folding the raw groundings. partition.Repair uses the same
// atom translations to rebuild only the connected components an update
// actually touched.

// Patch is the clause-level difference between two grounded MRFs, expressed
// in the NEW MRF's atom ids. OldToNew/NewToOld translate atom ids between
// the epochs (0 = no counterpart).
type Patch struct {
	OldToNew []AtomID
	NewToOld []AtomID

	// NumAtoms, Atoms and FixedCost describe the new MRF's atom table.
	NumAtoms  int
	Atoms     []mln.GroundAtom
	FixedCost float64

	// NumClauses is the new MRF's clause count; Added maps new clause index
	// -> clause content (new ids) for clauses with no old counterpart;
	// RemovedOld lists old clause indices with no new counterpart;
	// Reweighted maps new clause index -> new weight for clauses whose
	// literal set survived with a different weight.
	NumClauses int
	Added      map[int]Clause
	RemovedOld []int
	Reweighted map[int]float64

	// FixedCostChanged records a change in evidence-decided cost, which can
	// move without any clause diff (empty groundings never reach the clause
	// list).
	FixedCostChanged bool
}

// Identical reports whether the patch is empty: same atoms under the
// identity mapping, same clauses, same weights, same fixed cost.
func (p *Patch) Identical() bool {
	if len(p.Added) != 0 || len(p.RemovedOld) != 0 || len(p.Reweighted) != 0 || p.FixedCostChanged {
		return false
	}
	if p.NumAtoms != len(p.OldToNew)-1 {
		return false
	}
	for i, id := range p.OldToNew {
		if id != AtomID(i) {
			return false
		}
	}
	return true
}

func litSetKey(lits []Lit, remap []AtomID) (string, bool) {
	parts := make([]string, len(lits))
	var b strings.Builder
	for i, l := range lits {
		a := Atom(l)
		if remap != nil {
			a = remap[a]
			if a == 0 {
				return "", false
			}
		}
		b.Reset()
		v := uint32(a)
		b.WriteByte(byte(v >> 24))
		b.WriteByte(byte(v >> 16))
		b.WriteByte(byte(v >> 8))
		b.WriteByte(byte(v))
		if Pos(l) {
			b.WriteByte(1)
		} else {
			b.WriteByte(0)
		}
		parts[i] = b.String()
	}
	sort.Strings(parts)
	return strings.Join(parts, ""), true
}

// ComputePatch diffs two grounded MRFs given the atom-id translations
// (as built by grounding.AtomMaps). Clauses are matched by literal set in
// new-id space; the grounder's accumulator guarantees literal sets are
// unique within one MRF.
func ComputePatch(old, cur *MRF, oldToNew, newToOld []AtomID) *Patch {
	return computePatch(old, cur, oldToNew, newToOld, nil)
}

// ComputePatchTouched is ComputePatch restricted to clauses incident to a
// touched atom: one flagged in touchedNew (new ids), or — on either side —
// one with no counterpart in the other epoch. A ground clause can only
// appear, vanish or change weight through a raw grounding that changed, or,
// under the active closure, through one the closure admitted or dropped. A
// changed raw's atoms are all flagged. An admitted raw has a negated literal
// on an atom that was not active, hence not in the old network; a dropped one
// has one that no longer is, hence not in the new. Clauses with no touched
// atom therefore survive with identical weight and need no key comparison:
// the resulting Patch is identical to ComputePatch's; only the work is
// smaller.
func ComputePatchTouched(old, cur *MRF, oldToNew, newToOld []AtomID, touchedNew []bool) *Patch {
	return computePatch(old, cur, oldToNew, newToOld, touchedNew)
}

func computePatch(old, cur *MRF, oldToNew, newToOld []AtomID, touchedNew []bool) *Patch {
	p := &Patch{
		OldToNew:   oldToNew,
		NewToOld:   newToOld,
		NumAtoms:   cur.NumAtoms,
		Atoms:      cur.Atoms,
		FixedCost:  cur.FixedCost,
		NumClauses: len(cur.Clauses),
		Added:      make(map[int]Clause),
		Reweighted: make(map[int]float64),

		FixedCostChanged: old.FixedCost != cur.FixedCost,
	}
	// touched applies the one condition to either side: toOther translates
	// the clause's atom ids to the other epoch's, toNew (nil for a new
	// clause) to the new epoch's.
	touched := func(c *Clause, toOther, toNew []AtomID) bool {
		if touchedNew == nil {
			return true
		}
		for _, l := range c.Lits {
			a := Atom(l)
			if toOther[a] == 0 {
				return true
			}
			if toNew != nil {
				a = toNew[a]
			}
			if touchedNew[a] {
				return true
			}
		}
		return false
	}
	newByKey := make(map[string]int)
	var newSel []int
	for i := range cur.Clauses {
		if !touched(&cur.Clauses[i], newToOld, nil) {
			continue
		}
		k, _ := litSetKey(cur.Clauses[i].Lits, nil)
		newByKey[k] = i
		newSel = append(newSel, i)
	}
	matched := make(map[int]bool, len(newByKey))
	for i := range old.Clauses {
		if !touched(&old.Clauses[i], oldToNew, oldToNew) {
			continue
		}
		k, ok := litSetKey(old.Clauses[i].Lits, oldToNew)
		if ok {
			if ni, hit := newByKey[k]; hit && !matched[ni] {
				matched[ni] = true
				if old.Clauses[i].Weight != cur.Clauses[ni].Weight {
					p.Reweighted[ni] = cur.Clauses[ni].Weight
				}
				continue
			}
		}
		p.RemovedOld = append(p.RemovedOld, i)
	}
	for _, i := range newSel {
		if !matched[i] {
			p.Added[i] = cur.Clauses[i]
		}
	}
	return p
}

// Apply reconstructs the new epoch's MRF from the old one: drop removed
// clauses, renumber atoms, reweight survivors, splice added clauses at
// their recorded positions. The output is structurally identical to the new
// ground the patch was computed from — the epoch Engine's identity tests
// rely on that equivalence.
func (p *Patch) Apply(old *MRF) *MRF {
	out := New(p.NumAtoms)
	out.FixedCost = p.FixedCost
	out.Atoms = p.Atoms
	removed := make(map[int]bool, len(p.RemovedOld))
	for _, i := range p.RemovedOld {
		removed[i] = true
	}
	out.Clauses = make([]Clause, p.NumClauses)
	oi := 0
	for ni := range out.Clauses {
		if c, hit := p.Added[ni]; hit {
			out.Clauses[ni] = c
			continue
		}
		for removed[oi] {
			oi++
		}
		c := old.Clauses[oi]
		oi++
		w := c.Weight
		if nw, hit := p.Reweighted[ni]; hit {
			w = nw
		}
		lits := make([]Lit, len(c.Lits))
		for j, l := range c.Lits {
			a := p.OldToNew[Atom(l)]
			if Pos(l) {
				lits[j] = a
			} else {
				lits[j] = -a
			}
		}
		sortPatchLits(lits)
		out.Clauses[ni] = Clause{Weight: w, Lits: lits}
	}
	return out
}

// sortPatchLits restores the grounder's literal order (ascending atom id,
// then signed value), which atom renumbering can perturb.
func sortPatchLits(lits []Lit) {
	for i := 1; i < len(lits); i++ {
		for j := i; j > 0; j-- {
			a, b := lits[j], lits[j-1]
			aa, ab := Atom(a), Atom(b)
			if aa > ab || (aa == ab && a >= b) {
				break
			}
			lits[j], lits[j-1] = lits[j-1], lits[j]
		}
	}
}
