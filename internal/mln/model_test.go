package mln

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSymbolsInternStable(t *testing.T) {
	s := NewSymbols()
	a := s.Intern("alpha")
	b := s.Intern("beta")
	if a == b {
		t.Fatalf("distinct names got same id %d", a)
	}
	if got := s.Intern("alpha"); got != a {
		t.Fatalf("re-intern of alpha = %d, want %d", got, a)
	}
	if s.Name(a) != "alpha" || s.Name(b) != "beta" {
		t.Fatalf("name round trip failed: %q %q", s.Name(a), s.Name(b))
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
}

func TestSymbolsInternProperty(t *testing.T) {
	s := NewSymbols()
	f := func(name string) bool {
		id := s.Intern(name)
		id2 := s.Intern(name)
		return id == id2 && s.Name(id) == name
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSymbolsLookupMissing(t *testing.T) {
	s := NewSymbols()
	if _, ok := s.Lookup("nope"); ok {
		t.Fatal("Lookup of missing symbol returned ok")
	}
	if got := s.Name(99); got != "?sym99" {
		t.Fatalf("Name of bogus id = %q", got)
	}
}

func TestDomainAddDedup(t *testing.T) {
	d := NewDomain("paper")
	d.Add(3)
	d.Add(1)
	d.Add(3)
	if d.Size() != 2 {
		t.Fatalf("Size = %d, want 2", d.Size())
	}
	if !d.Contains(1) || !d.Contains(3) || d.Contains(2) {
		t.Fatal("Contains wrong")
	}
	sorted := d.Sorted()
	if sorted[0] != 1 || sorted[1] != 3 {
		t.Fatalf("Sorted = %v", sorted)
	}
}

func TestDeclarePredicate(t *testing.T) {
	p := NewProgram()
	pred, err := p.DeclarePredicate("wrote", []string{"person", "paper"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Arity() != 2 {
		t.Fatalf("arity = %d", pred.Arity())
	}
	if _, err := p.DeclarePredicate("wrote", []string{"a"}, false); err == nil {
		t.Fatal("duplicate declaration not rejected")
	}
	if _, ok := p.Predicate("wrote"); !ok {
		t.Fatal("lookup failed")
	}
	if p.Domains["person"] == nil || p.Domains["paper"] == nil {
		t.Fatal("argument domains not created")
	}
}

func TestAddClauseArityCheck(t *testing.T) {
	p := NewProgram()
	pred, _ := p.DeclarePredicate("q", []string{"t"}, false)
	err := p.AddClause(&Clause{Weight: 1, Lits: []Literal{{Pred: pred, Args: []Term{V("x"), V("y")}}}})
	if err == nil {
		t.Fatal("arity mismatch not rejected")
	}
}

func TestAddClauseExistChecks(t *testing.T) {
	p := NewProgram()
	wrote, _ := p.DeclarePredicate("wrote", []string{"person", "paper"}, false)
	ok := &Clause{Weight: 1, Exist: []string{"x"},
		Lits: []Literal{{Pred: wrote, Args: []Term{V("x"), V("p")}}}}
	if err := p.AddClause(ok); err != nil {
		t.Fatalf("valid existential rejected: %v", err)
	}
	negated := &Clause{Weight: 1, Exist: []string{"x"},
		Lits: []Literal{{Pred: wrote, Negated: true, Args: []Term{V("x"), V("p")}}}}
	if err := p.AddClause(negated); err == nil {
		t.Fatal("existential in negated literal not rejected")
	}
	unused := &Clause{Weight: 1, Exist: []string{"z"},
		Lits: []Literal{{Pred: wrote, Args: []Term{V("x"), V("p")}}}}
	if err := p.AddClause(unused); err == nil {
		t.Fatal("unused existential var not rejected")
	}
}

func TestClauseVarsExcludesExist(t *testing.T) {
	p := NewProgram()
	wrote, _ := p.DeclarePredicate("wrote", []string{"person", "paper"}, false)
	paper, _ := p.DeclarePredicate("paper", []string{"paper", "url"}, false)
	c := &Clause{Weight: 1, Exist: []string{"x"}, Lits: []Literal{
		{Pred: paper, Negated: true, Args: []Term{V("p"), V("u")}},
		{Pred: wrote, Args: []Term{V("x"), V("p")}},
	}}
	vars := c.Vars()
	if len(vars) != 2 || vars[0] != "p" || vars[1] != "u" {
		t.Fatalf("Vars = %v, want [p u]", vars)
	}
}

func TestClauseIsHard(t *testing.T) {
	if (&Clause{Weight: 5}).IsHard() {
		t.Fatal("soft clause reported hard")
	}
	if !(&Clause{Weight: math.Inf(1)}).IsHard() {
		t.Fatal("+inf not hard")
	}
	if !(&Clause{Weight: math.Inf(-1)}).IsHard() {
		t.Fatal("-inf not hard")
	}
}

func TestVarTypes(t *testing.T) {
	p := NewProgram()
	cat, _ := p.DeclarePredicate("cat", []string{"paper", "category"}, false)
	c := &Clause{Weight: 5, Lits: []Literal{
		{Pred: cat, Negated: true, Args: []Term{V("p"), V("c1")}},
		{Pred: cat, Negated: true, Args: []Term{V("p"), V("c2")}},
		{Args: []Term{V("c1"), V("c2")}}, // builtin eq
	}}
	types := p.VarTypes(c)
	if types["p"] != "paper" || types["c1"] != "category" || types["c2"] != "category" {
		t.Fatalf("VarTypes = %v", types)
	}
}

func TestValidateCatchesInconsistentTypes(t *testing.T) {
	p := NewProgram()
	a, _ := p.DeclarePredicate("a", []string{"t1"}, false)
	b, _ := p.DeclarePredicate("b", []string{"t2"}, false)
	c := &Clause{Weight: 1, Lits: []Literal{
		{Pred: a, Args: []Term{V("x")}},
		{Pred: b, Args: []Term{V("x")}},
	}}
	if err := p.AddClause(c); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err == nil {
		t.Fatal("inconsistent variable types not caught")
	}
}

func TestValidateCatchesUnboundEqVar(t *testing.T) {
	p := NewProgram()
	a, _ := p.DeclarePredicate("a", []string{"t1"}, false)
	c := &Clause{Weight: 1, Lits: []Literal{
		{Pred: a, Args: []Term{V("x")}},
		{Args: []Term{V("x"), V("zzz")}},
	}}
	if err := p.AddClause(c); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err == nil {
		t.Fatal("unbound equality var not caught")
	}
}

func TestEvidenceTruthAndCWA(t *testing.T) {
	p := NewProgram()
	refers, _ := p.DeclarePredicate("refers", []string{"paper", "paper"}, true) // closed
	cat, _ := p.DeclarePredicate("cat", []string{"paper", "category"}, false)   // open
	ev := NewEvidence(p)
	p1 := p.Constant("paper", "P1")
	p2 := p.Constant("paper", "P2")
	db := p.Constant("category", "DB")
	if err := ev.Assert(refers, []int32{p1, p2}, false); err != nil {
		t.Fatal(err)
	}
	if err := ev.Assert(cat, []int32{p2, db}, false); err != nil {
		t.Fatal(err)
	}
	if got := ev.TruthOf(refers, []int32{p1, p2}); got != True {
		t.Fatalf("refers(P1,P2) = %v, want true", got)
	}
	if got := ev.TruthOf(refers, []int32{p2, p1}); got != False {
		t.Fatalf("closed-world refers(P2,P1) = %v, want false", got)
	}
	if got := ev.TruthOf(cat, []int32{p1, db}); got != Unknown {
		t.Fatalf("open cat(P1,DB) = %v, want unknown", got)
	}
	if got := ev.TruthOf(cat, []int32{p2, db}); got != True {
		t.Fatalf("cat(P2,DB) = %v, want true", got)
	}
}

func TestEvidenceNegativeAssert(t *testing.T) {
	p := NewProgram()
	cat, _ := p.DeclarePredicate("cat", []string{"paper", "category"}, false)
	ev := NewEvidence(p)
	p1 := p.Constant("paper", "P1")
	ai := p.Constant("category", "AI")
	if err := ev.Assert(cat, []int32{p1, ai}, true); err != nil {
		t.Fatal(err)
	}
	if got := ev.TruthOf(cat, []int32{p1, ai}); got != False {
		t.Fatalf("negated evidence = %v, want false", got)
	}
}

func TestEvidenceForEachRoundTrip(t *testing.T) {
	p := NewProgram()
	wrote, _ := p.DeclarePredicate("wrote", []string{"person", "paper"}, true)
	ev := NewEvidence(p)
	want := map[[2]int32]bool{}
	for i := int32(0); i < 50; i++ {
		a := p.Constant("person", "A")
		b := p.Syms.Intern("B" + string(rune('a'+i%26)) + string(rune('a'+i/26)))
		p.Domain("paper").Add(b)
		if err := ev.Assert(wrote, []int32{a, b}, false); err != nil {
			t.Fatal(err)
		}
		want[[2]int32{a, b}] = true
	}
	got := map[[2]int32]bool{}
	ev.ForEach(wrote, func(args []int32, tr Truth) {
		if tr != True {
			t.Fatalf("truth = %v", tr)
		}
		got[[2]int32{args[0], args[1]}] = true
	})
	if len(got) != len(want) {
		t.Fatalf("ForEach returned %d tuples, want %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("missing tuple %v", k)
		}
	}
}

// argKey packs an argument tuple little-endian, 4 bytes an argument: the
// map key the evidence store used before it became flat tables, kept here
// as the reference for ForEach's order (ascending argKey).
func argKey(args []int32) string {
	var b strings.Builder
	b.Grow(len(args) * 4)
	for _, v := range args {
		b.WriteByte(byte(v))
		b.WriteByte(byte(v >> 8))
		b.WriteByte(byte(v >> 16))
		b.WriteByte(byte(v >> 24))
	}
	return b.String()
}

func TestEvidenceArgKeyRoundTripProperty(t *testing.T) {
	f := func(a, b, c int32) bool {
		k := argKey([]int32{a, b, c})
		if len(k) != 12 {
			return false
		}
		// Decode as ForEach does.
		dec := func(off int) int32 {
			return int32(uint32(k[off]) | uint32(k[off+1])<<8 | uint32(k[off+2])<<16 | uint32(k[off+3])<<24)
		}
		return dec(0) == a && dec(4) == b && dec(8) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGroundAtomFormat(t *testing.T) {
	p := NewProgram()
	wrote, _ := p.DeclarePredicate("wrote", []string{"person", "paper"}, false)
	joe := p.Constant("person", "Joe")
	p1 := p.Constant("paper", "P1")
	a := GroundAtom{Pred: wrote, Args: []int32{joe, p1}}
	if got := a.Format(p.Syms); got != "wrote(Joe, P1)" {
		t.Fatalf("Format = %q", got)
	}
}

func TestQueryDecl(t *testing.T) {
	p := NewProgram()
	cat, _ := p.DeclarePredicate("cat", []string{"paper", "category"}, false)
	q := NewQueryDecl()
	if !q.Empty() {
		t.Fatal("new QueryDecl not empty")
	}
	q.Add(cat)
	if q.Empty() || !q.Contains(cat) {
		t.Fatal("Add/Contains broken")
	}
}
