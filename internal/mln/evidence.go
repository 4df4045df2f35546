package mln

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
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
	prog  *Program
	rels  []*relation // by Predicate.ID; nil until the predicate has a tuple
	total int
}

// relation is one predicate's evidence as flat integer tables: slot i's
// arguments are args[i*arity:(i+1)*arity] and its truth is truths[i], and
// index is an open-addressed table over the tuples' hashes holding slot+1
// (0 is empty), at most half full. Remove leaves a tombstone (truth
// removed, which no stored tuple has) that a later Upsert of the same tuple
// revives, so a delta and its inverse leave the tables as they were;
// tombstones are dropped when the index grows.
type relation struct {
	pred   *Predicate
	arity  int
	args   []int32
	truths []Truth
	index  []int32
	live   int
}

// removed is the truth of a tombstoned slot: Upsert of Unknown removes, so
// no stored tuple is Unknown.
const removed = Unknown

// NewEvidence returns an empty evidence database for prog.
func NewEvidence(prog *Program) *Evidence {
	return &Evidence{prog: prog}
}

// Program returns the program this evidence is for.
func (e *Evidence) Program() *Program { return e.prog }

// rel returns pred's relation, nil when it holds no slot or pred is not of
// this evidence's program.
func (e *Evidence) rel(pred *Predicate) *relation {
	if pred.ID < 0 || pred.ID >= len(e.rels) {
		return nil
	}
	if r := e.rels[pred.ID]; r != nil && r.pred == pred {
		return r
	}
	return nil
}

// relFor returns pred's relation, creating it on first use.
func (e *Evidence) relFor(pred *Predicate) *relation {
	if r := e.rel(pred); r != nil {
		return r
	}
	for len(e.rels) <= pred.ID {
		e.rels = append(e.rels, nil)
	}
	if e.rels[pred.ID] != nil {
		panic(fmt.Sprintf("mln: predicate %s is not of this evidence's program", pred.Name))
	}
	r := &relation{pred: pred, arity: pred.Arity(), args: []int32{}} // ForEach views are never nil
	e.rels[pred.ID] = r
	return r
}

// home is the first probe in the index for a tuple: each argument is folded
// in by a multiply, and fibSlot spreads the result over the table's bits.
func (r *relation) home(args []int32) int {
	h := uint64(len(args))
	for _, a := range args {
		h = (h ^ uint64(uint32(a))) * 0x100000001B3
	}
	return fibSlot(h, len(r.index))
}

// tuple returns slot i's arguments, a view into args.
func (r *relation) tuple(i int32) []int32 {
	lo := int(i) * r.arity
	return r.args[lo : lo+r.arity : lo+r.arity]
}

// find returns the slot holding args (tombstoned or not) or -1.
func (r *relation) find(args []int32) int32 {
	if len(r.index) == 0 {
		return -1
	}
	mask := len(r.index) - 1
	for i := r.home(args); r.index[i] != 0; i = (i + 1) & mask {
		if s := r.index[i] - 1; slices.Equal(r.tuple(s), args) {
			return s
		}
	}
	return -1
}

// set records args with truth t (True or False) and returns the truth it
// had, ok false when it was absent or a tombstone.
func (r *relation) set(args []int32, t Truth) (prev Truth, ok bool) {
	if s := r.find(args); s >= 0 {
		prev = r.truths[s]
		r.truths[s] = t
		if prev == removed {
			r.live++
			return Unknown, false
		}
		return prev, true
	}
	if 2*(len(r.truths)+1) > len(r.index) {
		r.rebuild()
	}
	r.args = append(r.args, args...)
	r.truths = append(r.truths, t)
	r.live++
	r.place(int32(len(r.truths) - 1))
	return Unknown, false
}

// place enters slot s, which find does not hold, into the index.
func (r *relation) place(s int32) {
	mask := len(r.index) - 1
	i := r.home(r.tuple(s))
	for r.index[i] != 0 {
		i = (i + 1) & mask
	}
	r.index[i] = s + 1
}

// rebuild drops the tombstones and sizes the index for one more slot than
// the live ones, at most half full (16 slots at least).
func (r *relation) rebuild() {
	n := 0
	for s, t := range r.truths {
		if t == removed {
			continue
		}
		copy(r.args[n*r.arity:], r.tuple(int32(s)))
		r.truths[n] = t
		n++
	}
	r.args, r.truths = r.args[:n*r.arity], r.truths[:n]
	size := 16
	for size < 2*(n+1) {
		size *= 2
	}
	if len(r.index) != size {
		r.index = make([]int32, size)
	} else {
		clear(r.index)
	}
	for s := range int32(n) {
		r.place(s)
	}
}

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
	t := True
	if neg {
		t = False
	}
	if _, existed := e.relFor(pred).set(args, t); !existed {
		e.total++
	}
	return nil
}

// AssertNames is Assert with constant names; it interns them first.
func (e *Evidence) AssertNames(predName string, names []string, neg bool) error {
	pred, ok := e.prog.Predicate(predName)
	if !ok {
		return fmt.Errorf("mln: evidence for undeclared predicate %q", predName)
	}
	if len(names) != pred.Arity() {
		return fmt.Errorf("mln: evidence for %s has %d args, want %d", pred.Name, len(names), pred.Arity())
	}
	var buf [4]int32 // the arguments stay on the stack up to arity 4
	args := buf[:0]
	for i, n := range names {
		args = append(args, e.prog.Constant(pred.Args[i], n))
	}
	return e.Assert(pred, args, neg)
}

// TruthOf returns the three-valued truth of a ground atom under the evidence
// plus the closed-world assumption for closed predicates.
func (e *Evidence) TruthOf(pred *Predicate, args []int32) Truth {
	if v, ok := e.Get(pred, args); ok {
		return v
	}
	if pred.Closed {
		return False
	}
	return Unknown
}

// Count returns the number of evidence tuples for pred.
func (e *Evidence) Count(pred *Predicate) int {
	if r := e.rel(pred); r != nil {
		return r.live
	}
	return 0
}

// Total returns the number of evidence tuples across all predicates.
func (e *Evidence) Total() int { return e.total }

// ForEach calls fn for every evidence tuple of pred with its truth, in
// ascending order of the tuples' arguments packed little-endian, 4 bytes
// each, and compared as byte strings. Consumers assign ids in this order —
// the grounder's atom registry — and hash and store it — the snapshot's
// evidence section and its fingerprint — so it must not change: ids, files
// and fingerprints then agree across runs, builds and independently built
// systems. args is a view into the store, valid only during the call: copy
// it to keep it. fn must not change e.
func (e *Evidence) ForEach(pred *Predicate, fn func(args []int32, t Truth)) {
	r := e.rel(pred)
	if r == nil || r.live == 0 {
		return
	}
	order := make([]int32, 0, r.live)
	for s, t := range r.truths {
		if t != removed {
			order = append(order, int32(s))
		}
	}
	slices.SortFunc(order, func(a, b int32) int {
		x, y := r.tuple(a), r.tuple(b)
		for i := range x {
			if x[i] != y[i] {
				return cmp.Compare(bits.ReverseBytes32(uint32(x[i])), bits.ReverseBytes32(uint32(y[i])))
			}
		}
		return 0
	})
	for _, s := range order {
		fn(r.tuple(s), r.truths[s])
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
