package partition

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"tuffy/internal/datagen"
	"tuffy/internal/db"
	"tuffy/internal/grounding"
	"tuffy/internal/mrf"
)

// requirePartsAreComponents checks that a cut-free partitioning's parts
// are m's connected components part for part: same order (by smallest atom
// id), same atoms, same clauses in the same order with the same literals.
// The engine's one decomposition rests on this: marginal sampling runs over
// the parts exactly as it would over Components(true). Only the atom
// descriptors differ — parts carry none, and no search reads them.
func requirePartsAreComponents(t *testing.T, name string, m *mrf.MRF, pt *Partitioning) {
	t.Helper()
	if pt.NumCut() != 0 {
		t.Fatalf("%s: %d clauses cut", name, pt.NumCut())
	}
	comps := m.Components(true)
	if len(pt.Parts) != len(comps) {
		t.Fatalf("%s: %d parts, %d components", name, len(pt.Parts), len(comps))
	}
	for i, c := range comps {
		p := pt.Parts[i]
		if !reflect.DeepEqual(p.GlobalAtom, c.GlobalAtom) {
			t.Fatalf("%s: part %d covers atoms %v, component %v", name, i, p.GlobalAtom, c.GlobalAtom)
		}
		if p.Local.NumAtoms != c.MRF.NumAtoms || p.Local.FixedCost != c.MRF.FixedCost {
			t.Fatalf("%s: part %d has %d atoms / fixed cost %v, component %d / %v",
				name, i, p.Local.NumAtoms, p.Local.FixedCost, c.MRF.NumAtoms, c.MRF.FixedCost)
		}
		if !sameClauses(p.Local, c.MRF) {
			t.Fatalf("%s: part %d clauses differ from component's", name, i)
		}
	}
}

// noCutBeta is a positive bound no merge can exceed: the whole network's
// size units plus one.
func noCutBeta(m *mrf.MRF) int {
	units := m.NumAtoms + 1
	for ci := range m.W {
		c := m.Clause(ci)
		units += len(c.Lits)
	}
	return units
}

// Algorithm 3 with no bound, and with a bound that cuts nothing (which
// takes the weight-sorted scan), yields Components(true) part for part.
func TestCutFreePartsEqualComponents(t *testing.T) {
	ground := func(ds *datagen.Dataset) *mrf.MRF {
		ts, err := grounding.BuildTables(db.Open(db.Config{}), ds.Prog, ds.Ev)
		if err != nil {
			t.Fatal(err)
		}
		res, err := grounding.GroundBottomUp(context.Background(), ts, grounding.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res.MRF
	}
	nets := map[string]*mrf.MRF{
		"ie":      ground(datagen.IE(datagen.IEConfig{Chains: 40, Seed: 3})),
		"er":      ground(datagen.ER(datagen.ERConfig{Records: 12, Groups: 4, Seed: 3})),
		"lp":      ground(datagen.LP(datagen.LPConfig{Profs: 4, Students: 12, Courses: 8, Seed: 3})),
		"rc":      ground(datagen.RC(datagen.RCConfig{Papers: 60, Authors: 30, Categories: 4, Clusters: 12, Seed: 11})),
		"empty":   mrf.New(0),
		"nothing": mrf.New(7), // atoms, no clauses: every atom isolated
	}
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 10; trial++ {
		// blocksMRF touches at most a fraction of its atoms: the rest are
		// isolated and must come out as singleton parts in atom order.
		n := 10 * (1 + rng.Intn(20))
		nets[fmt.Sprintf("random%d", trial)] = blocksMRF(rng, n, rng.Intn(n/2+1))
	}
	for name, m := range nets {
		requirePartsAreComponents(t, name+"/beta0", m, Algorithm3(m, 0))
		requirePartsAreComponents(t, name+"/nocut", m, Algorithm3(m, noCutBeta(m)))
	}
}

// sameClauses reports whether two networks hold equal clauses in the same
// order, whatever arrays they keep them in.
func sameClauses(a, b *mrf.MRF) bool {
	if a.NumClauses() != b.NumClauses() {
		return false
	}
	for ci := range a.W {
		if !reflect.DeepEqual(a.Clause(ci), b.Clause(ci)) {
			return false
		}
	}
	return true
}

// A part whose atoms are 1..k keeps its global ids as local ones, so when
// its clauses are contiguous in the parent it is a view of the parent's
// arrays — on a one-component network the whole network is held once. Every
// other part gets its clauses from the partitioning's shared arena, and
// Repair copies a reused view out so a later epoch does not pin the old
// network.
func TestPrefixPartIsAView(t *testing.T) {
	m := mrf.New(5)
	for _, c := range []mrf.Clause{
		{Weight: 1, Lits: []mrf.Lit{1, -2}},
		{Weight: 2, Lits: []mrf.Lit{2, 3}},
		{Weight: -1, Lits: []mrf.Lit{4, 5}},
	} {
		if err := m.AddClause(c.Weight, c.Lits...); err != nil {
			t.Fatal(err)
		}
	}
	pt := Algorithm3(m, 0)
	if err := pt.Validate(); err != nil {
		t.Fatal(err)
	}
	requirePartsAreComponents(t, "prefix", m, pt)
	if !isView(pt.Parts[0].Local, m) {
		t.Fatal("the part over atoms 1..3 copied its clauses")
	}
	if isView(pt.Parts[1].Local, m) {
		t.Fatal("the part over atoms 4..5 shares the parent's literals")
	}

	cur := m.Compact() // the next epoch's network: same clauses, own arrays
	ids := []mrf.AtomID{0, 1, 2, 3, 4, 5}
	next, reused := Repair(pt, cur, ids, make([]bool, 6), 0)
	if reused != 2 {
		t.Fatalf("Repair reused %d parts, want 2", reused)
	}
	requirePartsAreComponents(t, "repaired", cur, next)
	for i, p := range next.Parts {
		if isView(p.Local, m) {
			t.Fatalf("repaired part %d still views the old network", i)
		}
	}
}
