package partition

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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

// ground folds a generated dataset's network.
func ground(t testing.TB, ds *datagen.Dataset) *mrf.MRF {
	t.Helper()
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

func rcSmall() *datagen.Dataset {
	return datagen.RC(datagen.RCConfig{Papers: 60, Authors: 30, Categories: 4, Clusters: 12, Seed: 11})
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
	nets := map[string]*mrf.MRF{
		"ie":      ground(t, datagen.IE(datagen.IEConfig{Chains: 40, Seed: 3})),
		"er":      ground(t, datagen.ER(datagen.ERConfig{Records: 12, Groups: 4, Seed: 3})),
		"lp":      ground(t, datagen.LP(datagen.LPConfig{Profs: 4, Students: 12, Courses: 8, Seed: 3})),
		"rc":      ground(t, rcSmall()),
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

// network builds an MRF over n atoms from literal lists, all of weight 1.
func network(t *testing.T, n int, clauses ...[]mrf.Lit) *mrf.MRF {
	t.Helper()
	m := mrf.New(n)
	for _, c := range clauses {
		if err := m.AddClause(1, c...); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// within reports whether x points into s's backing array.
func within[T any](x *T, s []T) bool {
	s = s[:cap(s)]
	for i := range s {
		if &s[i] == x {
			return true
		}
	}
	return false
}

// requireWindows asserts every part of pt whose network no other part
// shares is a window into pt.Source: its clause arrays are the parent's
// own, and its literals those of the parent (for the part over atoms 1..k)
// or of the one renumbered copy all other such parts share. It returns
// whether any part views the renumbered copy.
func requireWindows(t *testing.T, name string, pt *Partitioning) (renumbered bool) {
	t.Helper()
	m := pt.Source
	holders := map[*mrf.MRF]int{}
	for _, p := range pt.Parts {
		holders[p.Local]++
	}
	for pi, p := range pt.Parts {
		if p.Local.NumClauses() == 0 || holders[p.Local] > 1 {
			continue
		}
		if !within(&p.Local.W[0], m.W) || !within(&p.Local.Off[0], m.Off) {
			t.Fatalf("%s: part %d copied its clauses", name, pi)
		}
		want, of := m.Lits, "the parent's"
		if k := p.NumAtoms(); int(p.GlobalAtom[k]) != k {
			want, of = pt.renumbered, "the shared renumbered"
			renumbered = true
		}
		if len(want) == 0 || &p.Local.Lits[0] != &want[0] {
			t.Fatalf("%s: part %d's literals are not a view of %s array", name, pi, of)
		}
	}
	return renumbered
}

// requireOwnArrays asserts no part shares an array with the given ones.
func requireOwnArrays(t *testing.T, name string, parts []*Part, w []float64, off []uint32, lits ...[]mrf.Lit) {
	t.Helper()
	for pi, p := range parts {
		if p.Local.NumClauses() == 0 {
			continue
		}
		if within(&p.Local.W[0], w) || within(&p.Local.Off[0], off) {
			t.Fatalf("%s: part %d shares the clause arrays", name, pi)
		}
		for _, l := range lits {
			if within(&p.Local.Lits[0], l) {
				t.Fatalf("%s: part %d shares a literal array", name, pi)
			}
		}
	}
}

// When every part's clauses are contiguous in the parent, as in a network
// folded component by component, the parts of distinct content are windows
// into it: nothing is copied but the renumbered literals, once for all
// parts, and the part over atoms 1..k (a one-part network: the whole
// network) not even those. The renumbered copy exists only when a window
// views it: never when every part shares its network with another, as
// IE's do at 1 500 chains.
func TestContiguousPartsAreWindows(t *testing.T) {
	for name, m := range map[string]*mrf.MRF{
		"three parts": network(t, 7, []mrf.Lit{1, -2}, []mrf.Lit{2, 3}, []mrf.Lit{-4, 5}, []mrf.Lit{6, 7}, []mrf.Lit{7}),
		"blocks":      starBlocksMRF(rand.New(rand.NewSource(46)), 600, 1500),
		"ie":          ground(t, datagen.IE(datagen.IEConfig{Chains: 40, Seed: 3})),
		"ie shared":   ground(t, datagen.IE(datagen.IEConfig{Chains: 1500, Seed: 1})),
		"one part":    network(t, 3, []mrf.Lit{1, -2}, []mrf.Lit{2, 3}),
	} {
		pt := Algorithm3(m, 0)
		if err := pt.Validate(); err != nil {
			t.Fatal(err)
		}
		requirePartsAreComponents(t, name, m, pt)
		requireSharingIsContent(t, name, pt)
		if name != "ie" && name != "ie shared" {
			// Only the clause-free parts of isolated atoms are equal.
			withClauses := 0
			for _, p := range pt.Parts {
				if p.Local.NumClauses() > 0 {
					withClauses++
				}
			}
			if isolated := len(pt.Parts) - withClauses; networks(pt) != withClauses+min(isolated, 1) {
				t.Fatalf("%s: %d parts share %d networks", name, len(pt.Parts), networks(pt))
			}
		}
		if viewed := requireWindows(t, name, pt); viewed != (pt.renumbered != nil) {
			t.Fatalf("%s: a window views the renumbered copy: %v, copy allocated: %v", name, viewed, pt.renumbered != nil)
		}
		if want := name != "one part" && name != "ie shared"; (pt.renumbered != nil) != want {
			t.Fatalf("%s: renumbered copy allocated: %v, want %v", name, pt.renumbered != nil, want)
		}
	}
}

// A scattered network keeps the arenas; only the part over atoms 1..k is
// still a window when its own clauses are contiguous.
func TestScatteredPartsKeepArenas(t *testing.T) {
	for name, m := range map[string]*mrf.MRF{
		"scattered prefix": network(t, 5, []mrf.Lit{1, -2}, []mrf.Lit{4, 5}, []mrf.Lit{2, 3}),
		"contiguous prefix": network(t, 7, []mrf.Lit{1, -2}, []mrf.Lit{2, 3}, []mrf.Lit{4, 5},
			[]mrf.Lit{6, 7}, []mrf.Lit{-4, 5}),
		"rc": ground(t, rcSmall()),
	} {
		pt := Algorithm3(m, 0)
		if err := pt.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		requirePartsAreComponents(t, name, m, pt)
		if pt.renumbered != nil {
			t.Fatalf("%s: a scattered partitioning renumbered the parent's literals", name)
		}
		prefix := pt.Parts[0]
		prefixView := prefix.Local.NumClauses() > 0 && &prefix.Local.Lits[0] == &m.Lits[0]
		if want := name == "contiguous prefix"; prefixView != want {
			t.Fatalf("%s: part over atoms 1..%d is a view: %v, want %v", name, prefix.NumAtoms(), prefixView, want)
		}
		requireOwnArrays(t, name, pt.Parts[1:], m.W, m.Off, m.Lits)
	}
}

// Repair over a windowed partitioning pins nothing of the old epoch:
// reused parts are laid out anew, as windows into the next network when its
// parts are contiguous and in its arenas when not, exactly as Algorithm3
// lays them out there. Over arenas, reused parts keep their networks, a
// network that parts of equal content share included.
func TestRepairLeavesOldWindows(t *testing.T) {
	old := network(t, 7, []mrf.Lit{1, -2}, []mrf.Lit{2, 3}, []mrf.Lit{-4, 5}, []mrf.Lit{6, 7}, []mrf.Lit{7})
	scattered := network(t, 7, []mrf.Lit{1, -2}, []mrf.Lit{-4, 5}, []mrf.Lit{2, 3}, []mrf.Lit{6, 7}, []mrf.Lit{7})
	shared := network(t, 7, []mrf.Lit{1, -2}, []mrf.Lit{4, -5}, []mrf.Lit{2, 3}, []mrf.Lit{5, 6}, []mrf.Lit{7})
	ids := []mrf.AtomID{0, 1, 2, 3, 4, 5, 6, 7}
	for _, tc := range []struct {
		name     string
		old, cur *mrf.MRF
	}{
		{"windows to windows", old, old.Compact()},
		{"windows to arenas", old, scattered},
		{"arenas to arenas", scattered, scattered.Compact()},
		{"shared arenas to arenas", shared, shared.Compact()},
	} {
		pt := Algorithm3(tc.old, 0)
		next, reused := Repair(pt, tc.cur, ids, make([]bool, len(ids)), 0)
		if reused != 3 {
			t.Fatalf("%s: Repair reused %d parts, want 3", tc.name, reused)
		}
		want := Algorithm3(tc.cur, 0)
		if !reflect.DeepEqual(next.Parts, want.Parts) || !reflect.DeepEqual(next.PartOf, want.PartOf) ||
			!reflect.DeepEqual(next.Cut, want.Cut) || !slices.Equal(sharing(next), sharing(want)) {
			t.Fatalf("%s: repaired partitioning differs from Algorithm3's", tc.name)
		}
		switch tc.name {
		case "windows to windows":
			requireWindows(t, tc.name, next)
			fallthrough
		case "windows to arenas":
			requireOwnArrays(t, tc.name, next.Parts, tc.old.W, tc.old.Off, tc.old.Lits, pt.renumbered)
		default:
			for pi, p := range next.Parts {
				if p.Local != pt.Parts[pi].Local {
					t.Fatalf("%s: part %d did not keep its arena network", tc.name, pi)
				}
			}
		}
	}
}
