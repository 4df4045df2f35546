// Package mln defines the Markov Logic Network model used throughout the
// system: predicates, typed domains, first-order clauses with weights, and
// the evidence database. It mirrors the formalism of Section 2 of the Tuffy
// paper (Niu et al., VLDB 2011): an MLN is a set of weighted clauses in
// clausal form over a relational schema; together with an evidence database
// it defines a cost over possible worlds (Eq. 1 of the paper).
package mln

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"

	"tuffy/internal/valueset"
)

// Symbols interns constant names to dense int32 identifiers. All constants in
// a Program share one symbol table so that grounded atoms can be compared by
// integer id, exactly as the RDBMS layer stores them.
//
// The table is flat: names[id] is the name, copied out of the text it was
// parsed from so that no parser line stays pinned, and slots is an
// open-addressed table over the names' hashes holding id+1 (0 is empty),
// at most half full. The copies are packed back to back into chunks.
type Symbols struct {
	names []string
	slots []int32
	chunk strings.Builder // the chunk the next names are copied into
}

// NewSymbols returns an empty symbol table.
func NewSymbols() *Symbols { return &Symbols{} }

// Intern returns the id for name, assigning a fresh one if needed.
func (s *Symbols) Intern(name string) int32 {
	if 2*(len(s.names)+1) > len(s.slots) {
		s.grow()
	}
	i, mask := s.home(name), len(s.slots)-1
	for ; s.slots[i] != 0; i = (i + 1) & mask {
		if id := s.slots[i] - 1; s.names[id] == name {
			return id
		}
	}
	id := int32(len(s.names))
	s.names = append(s.names, s.keep(name))
	s.slots[i] = id + 1
	return id
}

// maxChunk bounds the chunks names are copied into; a name longer than an
// eighth of it is copied alone.
const maxChunk = 4096

// keep returns a copy of name. Names are appended to a chunk whose capacity
// never grows, so the strings already cut from it stay valid and are never
// written again; a full chunk is left to the names it holds, and the next
// one is twice as large, up to maxChunk.
func (s *Symbols) keep(name string) string {
	if len(name) > maxChunk/8 {
		return strings.Clone(name)
	}
	if s.chunk.Cap()-s.chunk.Len() < len(name) {
		size := min(maxChunk, max(64, 2*s.chunk.Cap()))
		s.chunk = strings.Builder{}
		s.chunk.Grow(size)
	}
	start := s.chunk.Len()
	s.chunk.WriteString(name)
	return s.chunk.String()[start:]
}

// Lookup returns the id for name and whether it has been interned.
func (s *Symbols) Lookup(name string) (int32, bool) {
	if len(s.slots) == 0 {
		return 0, false
	}
	i, mask := s.home(name), len(s.slots)-1
	for ; s.slots[i] != 0; i = (i + 1) & mask {
		if id := s.slots[i] - 1; s.names[id] == name {
			return id, true
		}
	}
	return 0, false
}

// home is name's first probe in slots: FNV-1a over its bytes, spread over
// the table's bits by a Fibonacci multiply.
func (s *Symbols) home(name string) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	return fibSlot(h, len(s.slots))
}

// grow doubles slots (to 16 at first) and reinserts every id.
func (s *Symbols) grow() {
	s.slots = make([]int32, max(16, 2*len(s.slots)))
	mask := len(s.slots) - 1
	for id, name := range s.names {
		i := s.home(name)
		for s.slots[i] != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = int32(id) + 1
	}
}

// fibSlot maps a hash to a slot of a power-of-two table of n slots by its
// top bits after a multiply by 2^64/φ, so every input bit reaches the slot.
func fibSlot(h uint64, n int) int {
	return int((h * 0x9E3779B97F4A7C15) >> (64 - bits.TrailingZeros(uint(n))))
}

// Name returns the string for an interned id.
func (s *Symbols) Name(id int32) string {
	if id < 0 || int(id) >= len(s.names) {
		return fmt.Sprintf("?sym%d", id)
	}
	return s.names[id]
}

// Len reports the number of interned symbols.
func (s *Symbols) Len() int { return len(s.names) }

// Domain is the set of constants of one declared type (e.g. "paper").
// Consts keeps them in insertion order; membership is a bitset over a window
// of symbol ids (a map only for ids outside it).
type Domain struct {
	Name   string
	Consts []int32
	set    valueset.Set
}

// NewDomain returns an empty domain with the given type name.
func NewDomain(name string) *Domain {
	return &Domain{Name: name}
}

// Add inserts a constant id into the domain if not already present.
func (d *Domain) Add(c int32) {
	if d.set.Contains(int64(c)) {
		return
	}
	d.set.Add(int64(c))
	d.Consts = append(d.Consts, c)
}

// Contains reports whether c is a member of the domain.
func (d *Domain) Contains(c int32) bool { return d.set.Contains(int64(c)) }

// Size returns the number of constants in the domain.
func (d *Domain) Size() int { return len(d.Consts) }

// Sorted returns the constants in ascending id order (stable iteration order
// for deterministic grounding).
func (d *Domain) Sorted() []int32 {
	out := make([]int32, len(d.Consts))
	copy(out, d.Consts)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Predicate declares a relation of the MLN schema, e.g. wrote(person, paper).
type Predicate struct {
	ID     int
	Name   string
	Args   []string // declared type name of each argument position
	Closed bool     // closed-world: truth fully determined by evidence
}

// Arity returns the number of arguments.
func (p *Predicate) Arity() int { return len(p.Args) }

func (p *Predicate) String() string {
	return fmt.Sprintf("%s(%s)", p.Name, strings.Join(p.Args, ", "))
}

// Term is either a variable (named placeholder) or an interned constant.
type Term struct {
	IsVar bool
	Var   string // variable name when IsVar
	Const int32  // interned constant id when !IsVar
}

// V returns a variable term.
func V(name string) Term { return Term{IsVar: true, Var: name} }

// C returns a constant term.
func C(id int32) Term { return Term{Const: id} }

func (t Term) key() string {
	if t.IsVar {
		return "?" + t.Var
	}
	return fmt.Sprintf("#%d", t.Const)
}

// Literal is a possibly negated atom P(t1,...,tk), or — when Pred is nil — a
// built-in (in)equality between two terms, which grounding resolves
// statically (the paper's rule F1 uses "c1 = c2" in the head).
type Literal struct {
	Pred    *Predicate
	Negated bool
	Args    []Term
}

// IsBuiltinEq reports whether the literal is a built-in term (in)equality.
func (l Literal) IsBuiltinEq() bool { return l.Pred == nil }

// Vars appends the variable names appearing in the literal to dst.
func (l Literal) Vars(dst []string) []string {
	for _, a := range l.Args {
		if a.IsVar {
			dst = append(dst, a.Var)
		}
	}
	return dst
}

// Format renders the literal with the given symbol table.
func (l Literal) Format(syms *Symbols) string {
	var b strings.Builder
	if l.Negated {
		b.WriteByte('!')
	}
	if l.IsBuiltinEq() {
		op := " = "
		if l.Negated {
			op = " != "
		}
		return termString(l.Args[0], syms) + op + termString(l.Args[1], syms)
	}
	b.WriteString(l.Pred.Name)
	b.WriteByte('(')
	for i, a := range l.Args {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(termString(a, syms))
	}
	b.WriteByte(')')
	return b.String()
}

func termString(t Term, syms *Symbols) string {
	if t.IsVar {
		return t.Var
	}
	if syms == nil {
		return fmt.Sprintf("#%d", t.Const)
	}
	return quoteIfNeeded(syms.Name(t.Const))
}

func quoteIfNeeded(s string) string {
	for _, r := range s {
		if r == ' ' || r == ',' || r == '(' || r == ')' {
			return `"` + s + `"`
		}
	}
	return s
}

// Clause is a weighted first-order clause: a disjunction of literals, all
// variables universally quantified except those listed in Exist, which are
// existentially quantified (and must occur only in positive literals, like
// rule F4 of the paper). Weight is +Inf for hard rules; negative weights
// mean the clause is "violated" when satisfied (Section 2.2).
type Clause struct {
	ID     int
	Weight float64
	Lits   []Literal
	Exist  []string
	Source string // original rule text, for diagnostics
}

// IsHard reports whether the clause is a hard constraint (infinite weight).
func (c *Clause) IsHard() bool { return math.IsInf(c.Weight, 0) }

// Vars returns the distinct universally quantified variables, in first-use
// order. Existential variables are excluded.
func (c *Clause) Vars() []string {
	ex := make(map[string]bool, len(c.Exist))
	for _, v := range c.Exist {
		ex[v] = true
	}
	seen := make(map[string]bool)
	var out []string
	for _, l := range c.Lits {
		for _, a := range l.Args {
			if a.IsVar && !seen[a.Var] && !ex[a.Var] {
				seen[a.Var] = true
				out = append(out, a.Var)
			}
		}
	}
	return out
}

// HasExist reports whether the clause has existential quantifiers.
func (c *Clause) HasExist() bool { return len(c.Exist) > 0 }

// Format renders the clause, weight first, as in the paper's Figure 1.
func (c *Clause) Format(syms *Symbols) string {
	var b strings.Builder
	switch {
	case math.IsInf(c.Weight, 1):
		b.WriteString("inf ")
	case math.IsInf(c.Weight, -1):
		b.WriteString("-inf ")
	default:
		fmt.Fprintf(&b, "%g ", c.Weight)
	}
	if len(c.Exist) > 0 {
		fmt.Fprintf(&b, "EXIST %s ", strings.Join(c.Exist, ","))
	}
	for i, l := range c.Lits {
		if i > 0 {
			b.WriteString(" v ")
		}
		b.WriteString(l.Format(syms))
	}
	return b.String()
}

// Program is a full MLN: schema, weighted clauses, typed domains and the
// shared symbol table. Programs are built by the parser or programmatically
// via the builder methods.
type Program struct {
	Syms    *Symbols
	Preds   []*Predicate
	Clauses []*Clause
	Domains map[string]*Domain

	predByName map[string]*Predicate
}

// NewProgram returns an empty program with a fresh symbol table.
func NewProgram() *Program {
	return &Program{
		Syms:       NewSymbols(),
		Domains:    make(map[string]*Domain),
		predByName: make(map[string]*Predicate),
	}
}

// DeclarePredicate adds a predicate to the schema. Argument type domains are
// created on first use. It returns an error if the name is already taken.
func (p *Program) DeclarePredicate(name string, argTypes []string, closed bool) (*Predicate, error) {
	if _, dup := p.predByName[name]; dup {
		return nil, fmt.Errorf("mln: predicate %q declared twice", name)
	}
	pred := &Predicate{ID: len(p.Preds), Name: name, Args: append([]string(nil), argTypes...), Closed: closed}
	p.Preds = append(p.Preds, pred)
	p.predByName[name] = pred
	for _, t := range argTypes {
		p.Domain(t)
	}
	return pred, nil
}

// Predicate looks a predicate up by name.
func (p *Program) Predicate(name string) (*Predicate, bool) {
	pred, ok := p.predByName[name]
	return pred, ok
}

// MustPredicate is Predicate but panics on unknown names; for tests and
// generators where the schema is static.
func (p *Program) MustPredicate(name string) *Predicate {
	pred, ok := p.predByName[name]
	if !ok {
		panic(fmt.Sprintf("mln: unknown predicate %q", name))
	}
	return pred
}

// AddClause validates and appends a clause, assigning its ID. Validation
// checks: arity, existential vars appear only in positive non-builtin
// literals, and every existential var is used.
func (p *Program) AddClause(c *Clause) error {
	for _, l := range c.Lits {
		if l.IsBuiltinEq() {
			if len(l.Args) != 2 {
				return fmt.Errorf("mln: builtin equality needs 2 terms, got %d", len(l.Args))
			}
			continue
		}
		if len(l.Args) != l.Pred.Arity() {
			return fmt.Errorf("mln: %s used with %d args, declared %d", l.Pred.Name, len(l.Args), l.Pred.Arity())
		}
	}
	if len(c.Exist) > 0 {
		used := make(map[string]bool)
		for _, l := range c.Lits {
			for _, a := range l.Args {
				if !a.IsVar {
					continue
				}
				for _, ev := range c.Exist {
					if a.Var == ev {
						if l.IsBuiltinEq() {
							return fmt.Errorf("mln: existential var %s in builtin equality", ev)
						}
						if l.Negated {
							return fmt.Errorf("mln: existential var %s in negated literal (unsupported)", ev)
						}
						used[ev] = true
					}
				}
			}
		}
		for _, ev := range c.Exist {
			if !used[ev] {
				return fmt.Errorf("mln: existential var %s unused", ev)
			}
		}
	}
	c.ID = len(p.Clauses)
	p.Clauses = append(p.Clauses, c)
	return nil
}

// Constant interns a constant name and records it in the domain of the given
// type (creating the domain if needed).
func (p *Program) Constant(typeName, name string) int32 {
	id := p.Syms.Intern(name)
	p.Domain(typeName).Add(id)
	return id
}

// Domain returns the domain for a type name, creating it if absent. A new
// domain keeps a copy of the name, not the text it was parsed from (a
// domain declaration's line holds every constant).
func (p *Program) Domain(typeName string) *Domain {
	d := p.Domains[typeName]
	if d == nil {
		d = NewDomain(strings.Clone(typeName))
		p.Domains[d.Name] = d
	}
	return d
}

// Validate performs whole-program checks: every clause references declared
// predicates and every domain referenced by a clause variable position is
// non-empty once evidence is loaded. It is advisory: grounding re-checks.
func (p *Program) Validate() error {
	for _, c := range p.Clauses {
		if len(c.Lits) == 0 {
			return fmt.Errorf("mln: clause %d is empty", c.ID)
		}
		if c.Weight == 0 {
			return fmt.Errorf("mln: clause %d has zero weight", c.ID)
		}
		// Variables must have a consistent type across uses.
		types := make(map[string]string)
		for _, l := range c.Lits {
			if l.IsBuiltinEq() {
				continue
			}
			for i, a := range l.Args {
				if !a.IsVar {
					continue
				}
				want := l.Pred.Args[i]
				if got, ok := types[a.Var]; ok && got != want {
					return fmt.Errorf("mln: clause %d: variable %s used as both %s and %s", c.ID, a.Var, got, want)
				}
				types[a.Var] = want
			}
		}
		// Builtin equality vars must be bound by some predicate literal.
		for _, l := range c.Lits {
			if !l.IsBuiltinEq() {
				continue
			}
			for _, a := range l.Args {
				if a.IsVar {
					if _, ok := types[a.Var]; !ok {
						return fmt.Errorf("mln: clause %d: equality var %s unbound", c.ID, a.Var)
					}
				}
			}
		}
	}
	return nil
}

// VarTypes returns, for each universally or existentially quantified variable
// of c, the domain type it ranges over (taken from the first predicate
// position that binds it).
func (p *Program) VarTypes(c *Clause) map[string]string {
	types := make(map[string]string)
	for _, l := range c.Lits {
		if l.IsBuiltinEq() {
			continue
		}
		for i, a := range l.Args {
			if a.IsVar {
				if _, ok := types[a.Var]; !ok {
					types[a.Var] = l.Pred.Args[i]
				}
			}
		}
	}
	return types
}
