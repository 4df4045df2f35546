package mrf

import (
	"math/rand"
	"slices"
	"testing"
)

// naivePostings is the append-grown reference the CSR index replaced.
func naivePostings(numAtoms int, clauses []Clause) (pos, neg [][]int32) {
	pos = make([][]int32, numAtoms+1)
	neg = make([][]int32, numAtoms+1)
	for ci, c := range clauses {
		for _, l := range c.Lits {
			if Pos(l) {
				pos[Atom(l)] = append(pos[Atom(l)], int32(ci))
			} else {
				neg[Atom(l)] = append(neg[Atom(l)], int32(ci))
			}
		}
	}
	return pos, neg
}

func randomClauses(rng *rand.Rand, numAtoms, n int) []Clause {
	clauses := make([]Clause, n)
	for i := range clauses {
		lits := make([]Lit, 1+rng.Intn(4))
		for j := range lits {
			lits[j] = Lit(1 + rng.Intn(numAtoms)) // repeats within a clause allowed
			if rng.Intn(2) == 0 {
				lits[j] = -lits[j]
			}
		}
		clauses[i] = Clause{Weight: 1, Lits: lits}
	}
	return clauses
}

// Build must list, per atom and sign, exactly the clause ids the naive
// index lists, in the same (ascending, with repeats) order — flip and
// deltaCost sum floats in posting order — and must do so again when one
// Postings value is rebuilt over larger, smaller and empty clause sets.
func TestPostingsMatchNaiveAcrossRebuilds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var p Postings
	for _, shape := range []struct{ atoms, clauses int }{{5, 12}, {40, 300}, {3, 2}, {7, 0}, {0, 0}, {40, 90}} {
		clauses := randomClauses(rng, max(shape.atoms, 1), shape.clauses)
		p.Build(shape.atoms, clauses)
		pos, neg := naivePostings(shape.atoms, clauses)
		for a := AtomID(1); int(a) <= shape.atoms; a++ {
			if !slices.Equal(p.Pos(a), pos[a]) {
				t.Fatalf("%+v atom %d: positive postings %v, want %v", shape, a, p.Pos(a), pos[a])
			}
			if !slices.Equal(p.Neg(a), neg[a]) {
				t.Fatalf("%+v atom %d: negative postings %v, want %v", shape, a, p.Neg(a), neg[a])
			}
		}
	}
}

// A rebuild into warm buffers must not allocate: that is what lets a
// Gauss-Seidel partition or an MC-SAT chain re-index every visit.
func TestPostingsRebuildDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	big := randomClauses(rng, 50, 400)
	small := randomClauses(rng, 50, 100)
	var p Postings
	p.Build(50, big)
	if n := testing.AllocsPerRun(10, func() {
		p.Build(50, small)
		p.Build(50, big)
	}); n != 0 {
		t.Fatalf("rebuild allocates %v times", n)
	}
}

// The three parts of an MRF's search index are cached on the MRF and
// independent of each other: repeated calls return the same pointer and
// values, and asking for the fingerprint or the baseline builds no postings.
func TestSearchIndexPartsAreLazyAndCached(t *testing.T) {
	m := buildExample1(t, 3)
	fp, off := m.Fingerprint()
	if fp2, off2 := m.Fingerprint(); fp2 != fp || off2 != off {
		t.Fatal("fingerprint not stable")
	}
	if got, want := m.AllFalseCost(), m.Cost(m.NewState()); got != want {
		t.Fatalf("AllFalseCost = %v, want %v", got, want)
	}
	if m.PostingsBuilt() {
		t.Fatal("fingerprint/baseline built the postings")
	}
	p := m.SharedPostings()
	if !m.PostingsBuilt() || m.SharedPostings() != p {
		t.Fatal("SharedPostings not cached on the MRF")
	}
	if other := buildExample1(t, 3); other.SharedPostings() == p {
		t.Fatal("two MRFs share one postings value")
	}
}

// sortComponents must give Components' canonical order (ascending smallest
// global atom) on a network with thousands of components — the IE shape,
// where the insertion sort it replaces was quadratic on every evidence
// update.
func TestSortComponentsManyComponents(t *testing.T) {
	const n = 6000
	m := buildExample1(t, n)
	comps := m.Components(false)
	if len(comps) != n {
		t.Fatalf("got %d components, want %d", len(comps), n)
	}
	for i, c := range comps { // ascending first-atom order
		if c.GlobalAtom[1] != AtomID(2*i+1) || c.GlobalAtom[2] != AtomID(2*i+2) {
			t.Fatalf("component %d covers atoms %v", i, c.GlobalAtom[1:])
		}
	}
	shuffled := slices.Clone(comps)
	rand.New(rand.NewSource(9)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	sortComponents(shuffled)
	if !slices.Equal(shuffled, comps) {
		t.Fatal("sortComponents does not restore the canonical order")
	}
}
