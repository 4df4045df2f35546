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
		if !reflect.DeepEqual(p.Local.Clauses, c.MRF.Clauses) {
			t.Fatalf("%s: part %d clauses differ from component's", name, i)
		}
	}
}

// noCutBeta is a positive bound no merge can exceed: the whole network's
// size units plus one.
func noCutBeta(m *mrf.MRF) int {
	units := m.NumAtoms + 1
	for _, c := range m.Clauses {
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
