package partition

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"tuffy/internal/datagen"
	"tuffy/internal/mrf"
)

// requireSharingIsContent asserts that two parts of pt share one network
// exactly when their contents are equal, and that a shared network is
// compact: its own arrays, none of the parent's or the renumbered copy's.
// On small networks it also checks each part's network against the part's
// clauses taken from the parent afresh.
func requireSharingIsContent(t *testing.T, name string, pt *Partitioning) {
	t.Helper()
	m := pt.Source
	holders := map[*mrf.MRF]int{}
	var reps []*Part // the first part over each network
	for _, p := range pt.Parts {
		if holders[p.Local] == 0 {
			reps = append(reps, p)
		}
		holders[p.Local]++
	}
	for i, a := range reps {
		for _, b := range reps[:i] {
			if a.NumAtoms() == b.NumAtoms() && sameClauses(a.Local, b.Local) {
				t.Fatalf("%s: parts over atoms %v and %v have equal content in two networks", name, a.GlobalAtom[1:], b.GlobalAtom[1:])
			}
		}
		if holders[a.Local] > 1 {
			requireOwnArrays(t, name, []*Part{a}, m.W, m.Off, m.Lits, pt.renumbered)
			if a.Local.NumClauses() > 0 && a.Local.Off[0] != 0 {
				t.Fatalf("%s: the network shared from atoms %v on is not compact", name, a.GlobalAtom[1:])
			}
		}
	}
	if m.NumClauses() > 5000 {
		return
	}
	for pi, p := range pt.Parts {
		if want := induceSub(m, p.GlobalAtom[1:]); p.NumAtoms() != want.NumAtoms || !sameClauses(p.Local, want) {
			t.Fatalf("%s: part %d's network is not its clauses", name, pi)
		}
	}
}

// sharing returns, for each part of pt, the index of the first part over
// its network: which parts share.
func sharing(pt *Partitioning) []int {
	first := map[*mrf.MRF]int{}
	out := make([]int, len(pt.Parts))
	for pi, p := range pt.Parts {
		if _, ok := first[p.Local]; !ok {
			first[p.Local] = pi
		}
		out[pi] = first[p.Local]
	}
	return out
}

// networks returns the number of distinct networks pt's parts hold.
func networks(pt *Partitioning) int {
	nets := map[*mrf.MRF]bool{}
	for _, p := range pt.Parts {
		nets[p.Local] = true
	}
	return len(nets)
}

// Parts of equal content share one compact network, whether the parts are
// windows or arenas; a part that differs from another by one ulp of one
// weight, one literal's sign, the order of its clauses or its atom count
// gets its own. The full compare decides alone when every hash collides.
func TestIdenticalPartsShareOneNetwork(t *testing.T) {
	const w = 1.5
	type clause struct {
		w    float64
		lits []mrf.Lit
	}
	// Five parts of three atoms and two clauses each, in local ids: the
	// first two are equal, each later one differs from them in one way.
	parts := [][]clause{
		{{1, []mrf.Lit{1, -2}}, {w, []mrf.Lit{2, 3}}},
		{{1, []mrf.Lit{1, -2}}, {w, []mrf.Lit{2, 3}}},
		{{1, []mrf.Lit{1, -2}}, {math.Nextafter(w, 2), []mrf.Lit{2, 3}}}, // one ulp
		{{1, []mrf.Lit{1, 2}}, {w, []mrf.Lit{2, 3}}},                     // one sign
		{{w, []mrf.Lit{2, 3}}, {1, []mrf.Lit{1, -2}}},                    // clause order
	}
	global := func(pi int, lits []mrf.Lit) []mrf.Lit {
		out := make([]mrf.Lit, len(lits))
		for i, l := range lits {
			out[i] = l + mrf.Lit(3*pi)
			if l < 0 {
				out[i] = l - mrf.Lit(3*pi)
			}
		}
		return out
	}
	contiguous, scattered := mrf.New(3*len(parts)), mrf.New(3*len(parts))
	for pi, cs := range parts {
		for _, c := range cs {
			contiguous.Append(c.w, global(pi, c.lits))
		}
	}
	for j := range 2 {
		for pi, cs := range parts {
			scattered.Append(cs[j].w, global(pi, cs[j].lits))
		}
	}
	for name, m := range map[string]*mrf.MRF{"windows": contiguous, "arenas": scattered} {
		pt := Algorithm3(m, 0)
		if err := pt.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		requirePartsAreComponents(t, name, m, pt)
		requireSharingIsContent(t, name, pt)
		if pt.Parts[0].Local != pt.Parts[1].Local || networks(pt) != 4 {
			t.Fatalf("%s: %d networks for 5 parts, the first two shared: %v", name, networks(pt), pt.Parts[0].Local == pt.Parts[1].Local)
		}
		if name == "windows" {
			requireWindows(t, name, &Partitioning{Source: m, Parts: pt.Parts[2:], renumbered: pt.renumbered})
		}

		// The compare alone, under a hash that collides everywhere.
		fresh := &Partitioning{Source: m}
		fresh.PartOf, fresh.Parts = greedyParts(m, 0)
		c := fresh.scan()
		if rep := classes(make([]uint64, len(fresh.Parts)), c.same); !slices.Equal(rep, []int32{0, 0, 2, 3, 4}) {
			t.Fatalf("%s: classes under colliding hashes %v", name, rep)
		}
	}

	// Equal clauses over different atom counts: atom 6 is part of the
	// second part but of none of its clauses (as under a bound that cuts
	// every clause over it).
	m := network(t, 6, []mrf.Lit{1, -2}, []mrf.Lit{3, -4})
	pt := &Partitioning{Source: m, PartOf: []int32{0, 0, 0, 1, 1, 2, 1}}
	pt.Parts = []*Part{{GlobalAtom: []mrf.AtomID{0, 1, 2}}, {GlobalAtom: []mrf.AtomID{0, 3, 4, 6}}, {GlobalAtom: []mrf.AtomID{0, 5}}}
	if c := pt.scan(); c.same(0, 1) {
		t.Fatal("parts of two and three atoms compare equal")
	}
	pt.Cut, pt.CutWeight = nil, 0
	pt.layout()
	if pt.Parts[0].Local == pt.Parts[1].Local {
		t.Fatal("parts of two and three atoms share a network")
	}
}

// On generated networks, parts share a network exactly when their
// contents are equal, with or without a bound, and IE's 40 chains hold 17
// distinct ones.
func TestSharingFollowsContent(t *testing.T) {
	ie := ground(t, datagen.IE(datagen.IEConfig{Chains: 40, Seed: 3}))
	for _, beta := range []int{0, 30} {
		pt := Algorithm3(ie, beta)
		requireSharingIsContent(t, "ie", pt)
		if beta == 0 && networks(pt) != 17 {
			t.Fatalf("ie: %d networks for %d parts, want 17", networks(pt), len(pt.Parts))
		}
	}
	rng := rand.New(rand.NewSource(47))
	for trial := range 10 {
		m := blocksMRF(rng, 10*(2+rng.Intn(20)), rng.Intn(60))
		for _, beta := range []int{0, 12} {
			pt := Algorithm3(m, beta)
			if err := pt.Validate(); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			requireSharingIsContent(t, "blocks", pt)
		}
	}
}
