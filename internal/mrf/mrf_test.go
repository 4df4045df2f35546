package mrf

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tuffy/internal/db"
	"tuffy/internal/db/tuple"
)

// buildExample1 constructs the paper's Example 1: N components, each with
// atoms {X_i, Y_i} and clauses {(X_i,1), (Y_i,1), (X_i v Y_i, -1)}.
func buildExample1(t *testing.T, n int) *MRF {
	t.Helper()
	m := New(2 * n)
	for i := 0; i < n; i++ {
		x := AtomID(2*i + 1)
		y := AtomID(2*i + 2)
		if err := m.AddClause(1, x); err != nil {
			t.Fatal(err)
		}
		if err := m.AddClause(1, y); err != nil {
			t.Fatal(err)
		}
		if err := m.AddClause(-1, x, y); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func TestLitHelpers(t *testing.T) {
	if Atom(-5) != 5 || Atom(5) != 5 {
		t.Fatal("Atom broken")
	}
	if Pos(-5) || !Pos(5) {
		t.Fatal("Pos broken")
	}
}

func TestClauseSemantics(t *testing.T) {
	m := New(2)
	if err := m.AddClause(2, 1, -2); err != nil { // x1 v !x2, weight 2
		t.Fatal(err)
	}
	s := m.NewState()
	// x1=F, x2=F: !x2 true => satisfied
	if m.Clause(0).ViolatedBy(s) {
		t.Fatal("should be satisfied")
	}
	s[2] = true // x1=F, x2=T: violated
	if !m.Clause(0).ViolatedBy(s) {
		t.Fatal("should be violated")
	}
	if got := m.Cost(s); got != 2 {
		t.Fatalf("cost = %v", got)
	}
}

func TestNegativeWeightViolatedWhenSatisfied(t *testing.T) {
	m := New(1)
	if err := m.AddClause(-3, 1); err != nil {
		t.Fatal(err)
	}
	s := m.NewState()
	if m.Clause(0).ViolatedBy(s) {
		t.Fatal("false atom: negative clause not satisfied, so not violated")
	}
	s[1] = true
	if !m.Clause(0).ViolatedBy(s) {
		t.Fatal("true atom satisfies clause; negative weight means violated")
	}
	if got := m.Cost(s); got != 3 {
		t.Fatalf("cost uses |w|: got %v", got)
	}
}

func TestHardClauseInfiniteCost(t *testing.T) {
	m := New(1)
	if err := m.AddClause(math.Inf(1), 1); err != nil {
		t.Fatal(err)
	}
	s := m.NewState()
	if !math.IsInf(m.Cost(s), 1) {
		t.Fatal("violated hard clause should cost +Inf")
	}
	s[1] = true
	if m.Cost(s) != 0 {
		t.Fatalf("cost = %v", m.Cost(s))
	}
}

func TestAddClauseValidation(t *testing.T) {
	m := New(2)
	if err := m.AddClause(1); err == nil {
		t.Fatal("empty clause accepted")
	}
	if err := m.AddClause(1, 3); err == nil {
		t.Fatal("out-of-range atom accepted")
	}
	if err := m.AddClause(1, 0); err == nil {
		t.Fatal("atom 0 accepted")
	}
}

func TestExample1CostLandscape(t *testing.T) {
	m := buildExample1(t, 1)
	s := m.NewState()
	// both false: X violated (1) + Y violated (1) = 2
	if got := m.Cost(s); got != 2 {
		t.Fatalf("FF cost = %v", got)
	}
	s[1] = true // X=T,Y=F: Y violated (1) + neg clause satisfied (1) = 2
	if got := m.Cost(s); got != 2 {
		t.Fatalf("TF cost = %v", got)
	}
	s[2] = true // both true: neg clause violated = 1 (the optimum)
	if got := m.Cost(s); got != 1 {
		t.Fatalf("TT cost = %v", got)
	}
}

func TestFixedCostAdded(t *testing.T) {
	m := New(1)
	m.FixedCost = 7.5
	if err := m.AddClause(1, 1); err != nil {
		t.Fatal(err)
	}
	s := m.NewState()
	if got := m.Cost(s); got != 8.5 {
		t.Fatalf("cost = %v", got)
	}
}

func TestUnionFind(t *testing.T) {
	uf := NewUnionFind(10)
	if uf.Count() != 10 {
		t.Fatalf("count = %d", uf.Count())
	}
	if !uf.Union(1, 2) || !uf.Union(2, 3) {
		t.Fatal("unions failed")
	}
	if uf.Union(1, 3) {
		t.Fatal("redundant union reported as merge")
	}
	if uf.Find(1) != uf.Find(3) {
		t.Fatal("1 and 3 should share a root")
	}
	if uf.Find(4) == uf.Find(1) {
		t.Fatal("4 wrongly merged")
	}
	if uf.Count() != 8 {
		t.Fatalf("count = %d", uf.Count())
	}
}

func TestUnionFindProperty(t *testing.T) {
	f := func(pairs []uint8) bool {
		uf := NewUnionFind(50)
		ref := make(map[int32]int32) // naive: map to min element via rebuild
		groups := make([][]int32, 51)
		for i := int32(1); i <= 50; i++ {
			groups[i] = []int32{i}
			ref[i] = i
		}
		merge := func(a, b int32) {
			ra, rb := ref[a], ref[b]
			if ra == rb {
				return
			}
			for _, x := range groups[rb] {
				ref[x] = ra
			}
			groups[ra] = append(groups[ra], groups[rb]...)
			groups[rb] = nil
		}
		for i := 0; i+1 < len(pairs); i += 2 {
			a := int32(pairs[i]%50) + 1
			b := int32(pairs[i+1]%50) + 1
			uf.Union(a, b)
			merge(a, b)
		}
		for a := int32(1); a <= 50; a++ {
			for b := a + 1; b <= 50; b++ {
				if (uf.Find(a) == uf.Find(b)) != (ref[a] == ref[b]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestComponentsExample1(t *testing.T) {
	const n = 25
	m := buildExample1(t, n)
	comps := m.Components(false)
	if len(comps) != n {
		t.Fatalf("components = %d, want %d", len(comps), n)
	}
	for _, c := range comps {
		if c.Size() != 2 {
			t.Fatalf("component size = %d", c.Size())
		}
		if c.MRF.NumClauses() != 3 {
			t.Fatalf("component clauses = %d", c.MRF.NumClauses())
		}
	}
}

func TestComponentsSingleConnected(t *testing.T) {
	m := New(4)
	_ = m.AddClause(1, 1, 2)
	_ = m.AddClause(1, 2, 3)
	_ = m.AddClause(1, 3, 4)
	comps := m.Components(false)
	if len(comps) != 1 || comps[0].Size() != 4 {
		t.Fatalf("components = %d", len(comps))
	}
}

func TestComponentsIsolatedAtoms(t *testing.T) {
	m := New(5)
	_ = m.AddClause(1, 1, 2)
	// atoms 3,4,5 appear in no clause
	if got := len(m.Components(false)); got != 1 {
		t.Fatalf("without isolated: %d", got)
	}
	if got := len(m.Components(true)); got != 4 {
		t.Fatalf("with isolated: %d", got)
	}
}

// Cost additivity across components (the identity in Section 3.3):
// costG(I) = sum_i costGi(Ii).
func TestComponentCostAdditivityProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		nAtoms := 3 + r.Intn(20)
		m := New(nAtoms)
		nClauses := 1 + r.Intn(30)
		for i := 0; i < nClauses; i++ {
			width := 1 + r.Intn(3)
			lits := make([]Lit, 0, width)
			seen := map[AtomID]bool{}
			for len(lits) < width {
				a := AtomID(1 + r.Intn(nAtoms))
				if seen[a] {
					continue
				}
				seen[a] = true
				l := a
				if r.Intn(2) == 0 {
					l = -a
				}
				lits = append(lits, l)
			}
			w := float64(1+r.Intn(5)) * float64(1-2*r.Intn(2)) // ±1..5
			if err := m.AddClause(w, lits...); err != nil {
				t.Fatal(err)
			}
		}
		state := m.NewState()
		for a := 1; a <= nAtoms; a++ {
			state[a] = r.Intn(2) == 0
		}
		total := m.Cost(state)
		sum := 0.0
		for _, c := range m.Components(false) {
			sum += c.MRF.Cost(c.ExtractState(state))
		}
		if math.Abs(total-sum) > 1e-9 {
			t.Fatalf("trial %d: cost %v != component sum %v", trial, total, sum)
		}
	}
}

func TestProjectExtractRoundTrip(t *testing.T) {
	m := buildExample1(t, 3)
	comps := m.Components(false)
	global := m.NewState()
	global[3] = true
	global[4] = true
	for _, c := range comps {
		local := c.ExtractState(global)
		fresh := make([]bool, m.NumAtoms+1)
		c.ProjectState(local, fresh)
		for i := 1; i <= c.MRF.NumAtoms; i++ {
			g := c.GlobalAtom[i]
			if fresh[g] != global[g] {
				t.Fatalf("round trip mismatch at atom %d", g)
			}
		}
	}
}

func TestComputeStats(t *testing.T) {
	m := buildExample1(t, 10)
	s := m.ComputeStats()
	if s.NumAtoms != 20 || s.NumClauses != 30 {
		t.Fatalf("stats = %+v", s)
	}
	if s.NumLiterals != 40 {
		t.Fatalf("literals = %d", s.NumLiterals)
	}
	if s.NumNegWeight != 10 {
		t.Fatalf("neg clauses = %d", s.NumNegWeight)
	}
	if s.ClauseBytes <= 0 || s.SearchBytes <= 0 {
		t.Fatalf("byte accounting missing: %+v", s)
	}
}

func TestStoreLoadRoundTrip(t *testing.T) {
	m := buildExample1(t, 5)
	m.W[0] = 2.5 // exercise non-integer weights
	d := db.Open(db.Config{})
	if err := Store(m, d, "clauses"); err != nil {
		t.Fatal(err)
	}
	got, err := Load(d, "clauses", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumAtoms != m.NumAtoms {
		t.Fatalf("atoms = %d, want %d", got.NumAtoms, m.NumAtoms)
	}
	if got.NumClauses() != m.NumClauses() {
		t.Fatalf("clauses = %d, want %d", got.NumClauses(), m.NumClauses())
	}
	for i := range m.W {
		if got.Clause(i).Weight != m.Clause(i).Weight {
			t.Fatalf("clause %d weight %v != %v", i, got.Clause(i).Weight, m.Clause(i).Weight)
		}
		if len(got.Clause(i).Lits) != len(m.Clause(i).Lits) {
			t.Fatalf("clause %d lits differ", i)
		}
		for j := range m.Clause(i).Lits {
			if got.Clause(i).Lits[j] != m.Clause(i).Lits[j] {
				t.Fatalf("clause %d lit %d: %d != %d", i, j, got.Clause(i).Lits[j], m.Clause(i).Lits[j])
			}
		}
	}
	// Store over an existing table replaces contents.
	if err := Store(m, d, "clauses"); err != nil {
		t.Fatal(err)
	}
	got2, err := Load(d, "clauses", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got2.NumClauses() != m.NumClauses() {
		t.Fatalf("after re-store: %d clauses", got2.NumClauses())
	}
}

func TestStoreHardClauseWeights(t *testing.T) {
	m := New(1)
	_ = m.AddClause(math.Inf(1), 1)
	d := db.Open(db.Config{})
	if err := Store(m, d, "c"); err != nil {
		t.Fatal(err)
	}
	got, err := Load(d, "c", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Clause(0).IsHard() {
		t.Fatalf("hard weight lost: %v", got.Clause(0).Weight)
	}
}

// Round-trips for the set-oriented search's helper-table codecs: the
// violated-clause side table and the atom→clause inverted-index table.
func TestViolRowRoundTrip(t *testing.T) {
	cases := []Clause{
		{Weight: 2.5, Lits: []Lit{1, -2}},
		{Weight: -0.7, Lits: []Lit{3}},
		{Weight: math.Inf(1), Lits: []Lit{-4, 5}},
	}
	for cid, c := range cases {
		row := ViolRow(int64(cid), c)
		gotCid, w, hard, err := RowViol(row)
		if err != nil {
			t.Fatal(err)
		}
		if gotCid != int64(cid) {
			t.Fatalf("cid = %d, want %d", gotCid, cid)
		}
		if hard != c.IsHard() {
			t.Fatalf("hard = %v for weight %v", hard, c.Weight)
		}
		if !hard && w != c.Weight {
			t.Fatalf("weight = %v, want %v (must round-trip bit-exactly)", w, c.Weight)
		}
	}
	if _, _, _, err := RowViol(ClauseRow(0, cases[0])); err == nil {
		t.Fatal("clause row accepted as violated-clause row")
	}
}

func TestAtomIndexRowRoundTrip(t *testing.T) {
	row := AtomIndexRow(7, []int64{0, 3, 9, 12})
	aid, cids, err := RowAtomIndex(row)
	if err != nil {
		t.Fatal(err)
	}
	if aid != 7 || len(cids) != 4 || cids[0] != 0 || cids[3] != 12 {
		t.Fatalf("round trip = %d %v", aid, cids)
	}
	if _, _, err := RowAtomIndex(ViolRow(1, Clause{Weight: 1, Lits: []Lit{1}})); err == nil {
		t.Fatal("violated-clause row accepted as atom-index row")
	}
}

// Side-table rows must be fixed-width so slot reuse via in-place update
// works for any weight/hardness combination.
func TestViolRowFixedWidth(t *testing.T) {
	sch := ViolTableSchema()
	want := -1
	for _, c := range []Clause{
		{Weight: 1, Lits: []Lit{1}},
		{Weight: math.Inf(1), Lits: []Lit{1, 2, 3}},
		{Weight: -123.456, Lits: []Lit{-9}},
	} {
		// Encode through the storage codec used by the heap.
		rec, err := tuple.Encode(sch, ViolRow(42, c))
		if err != nil {
			t.Fatal(err)
		}
		if want < 0 {
			want = len(rec)
		} else if len(rec) != want {
			t.Fatalf("side row width %d != %d", len(rec), want)
		}
	}
}
