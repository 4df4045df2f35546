package mln

import (
	"fmt"
	"sort"
	"strings"
)

// Truth is the three-valued truth attribute the paper stores in each
// predicate relation R_P(aid, args, truth): known true, known false, or not
// specified by the evidence.
type Truth int8

const (
	Unknown Truth = iota
	True
	False
)

func (t Truth) String() string {
	switch t {
	case True:
		return "true"
	case False:
		return "false"
	default:
		return "unknown"
	}
}

// GroundAtom is a fully instantiated predicate, e.g. wrote(Joe, P1).
type GroundAtom struct {
	Pred *Predicate
	Args []int32
}

// argKey packs an argument tuple into a compact map key. Keys are only
// comparable within a single predicate.
func argKey(args []int32) string {
	var b strings.Builder
	b.Grow(len(args) * 5)
	for _, v := range args {
		b.WriteByte(byte(v))
		b.WriteByte(byte(v >> 8))
		b.WriteByte(byte(v >> 16))
		b.WriteByte(byte(v >> 24))
	}
	return b.String()
}

// Format renders the atom with the program's symbol table.
func (a GroundAtom) Format(syms *Symbols) string {
	parts := make([]string, len(a.Args))
	for i, c := range a.Args {
		parts[i] = quoteIfNeeded(syms.Name(c))
	}
	return fmt.Sprintf("%s(%s)", a.Pred.Name, strings.Join(parts, ", "))
}

// Evidence is the database of known ground atoms. Atoms of closed-world
// predicates not present are false; atoms of open predicates not present are
// unknown (query atoms). This matches the paper's Figure 1 "Evidence" box.
type Evidence struct {
	prog   *Program
	tables map[*Predicate]map[string]Truth
	counts map[*Predicate]int
	total  int
}

// NewEvidence returns an empty evidence database for prog.
func NewEvidence(prog *Program) *Evidence {
	return &Evidence{
		prog:   prog,
		tables: make(map[*Predicate]map[string]Truth),
		counts: make(map[*Predicate]int),
	}
}

// Program returns the program this evidence is for.
func (e *Evidence) Program() *Program { return e.prog }

// Assert records a ground atom as true (or false when neg is set). The
// constants are added to the domains of the predicate's argument types, so
// loading evidence also populates the typed domains.
func (e *Evidence) Assert(pred *Predicate, args []int32, neg bool) error {
	if len(args) != pred.Arity() {
		return fmt.Errorf("mln: evidence for %s has %d args, want %d", pred.Name, len(args), pred.Arity())
	}
	for i, c := range args {
		e.prog.Domain(pred.Args[i]).Add(c)
	}
	t := e.tables[pred]
	if t == nil {
		t = make(map[string]Truth)
		e.tables[pred] = t
	}
	k := argKey(args)
	if _, dup := t[k]; !dup {
		e.counts[pred]++
		e.total++
	}
	if neg {
		t[k] = False
	} else {
		t[k] = True
	}
	return nil
}

// AssertNames is Assert with constant names; it interns them first.
func (e *Evidence) AssertNames(predName string, names []string, neg bool) error {
	pred, ok := e.prog.Predicate(predName)
	if !ok {
		return fmt.Errorf("mln: evidence for undeclared predicate %q", predName)
	}
	args := make([]int32, len(names))
	for i, n := range names {
		if i >= pred.Arity() {
			break
		}
		args[i] = e.prog.Constant(pred.Args[i], n)
	}
	return e.Assert(pred, args, neg)
}

// TruthOf returns the three-valued truth of a ground atom under the evidence
// plus the closed-world assumption for closed predicates.
func (e *Evidence) TruthOf(pred *Predicate, args []int32) Truth {
	if t, ok := e.tables[pred]; ok {
		if v, ok := t[argKey(args)]; ok {
			return v
		}
	}
	if pred.Closed {
		return False
	}
	return Unknown
}

// Count returns the number of evidence tuples for pred.
func (e *Evidence) Count(pred *Predicate) int { return e.counts[pred] }

// Total returns the number of evidence tuples across all predicates.
func (e *Evidence) Total() int { return e.total }

// ForEach calls fn for every evidence tuple of pred, in a deterministic
// (packed-key) order, so consumers that assign ids in visit order — the
// grounder's atom registry — produce identical ids across runs and across
// independently built systems. fn receives the argument tuple and its truth.
func (e *Evidence) ForEach(pred *Predicate, fn func(args []int32, t Truth)) {
	table := e.tables[pred]
	if table == nil {
		return
	}
	keys := make([]string, 0, len(table))
	for k := range table {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	n := pred.Arity()
	for _, k := range keys {
		args := make([]int32, n)
		for i := 0; i < n; i++ {
			off := i * 4
			args[i] = int32(uint32(k[off]) | uint32(k[off+1])<<8 | uint32(k[off+2])<<16 | uint32(k[off+3])<<24)
		}
		fn(args, table[k])
	}
}

// QueryDecl marks which predicates the user is querying. Open (non-closed)
// predicates not in any query default to query status as well, matching
// Tuffy's behaviour of inferring all missing data.
type QueryDecl struct {
	preds map[*Predicate]bool
}

// NewQueryDecl returns an empty query declaration.
func NewQueryDecl() *QueryDecl {
	return &QueryDecl{preds: make(map[*Predicate]bool)}
}

// Add marks pred as queried.
func (q *QueryDecl) Add(pred *Predicate) { q.preds[pred] = true }

// Contains reports whether pred was marked.
func (q *QueryDecl) Contains(pred *Predicate) bool { return q.preds[pred] }

// Empty reports whether no predicate was marked.
func (q *QueryDecl) Empty() bool { return len(q.preds) == 0 }
