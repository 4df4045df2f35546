// Package grounding implements both grounding strategies the paper
// compares: Tuffy's bottom-up grounder, which compiles each MLN clause to a
// SQL query over per-predicate relations and lets the RDBMS optimizer
// execute it (Section 3.1, Appendix B.1), and the Alchemy-style top-down
// grounder that enumerates variable bindings with nested loops. Both apply
// the same evidence-pruning rules (Appendix A.3) and produce identical
// MRFs, so Table 2 / Figure 3 comparisons measure strategy, not semantics.
//
// The bottom-up grounder parallelizes with Options.Workers: clauses ground
// concurrently, and a clause whose optimizer-estimated cost dominates the
// workload is further split into hash ranges of a join variable so one
// heavy clause cannot serialize the phase. Every task sorts its own output
// into the canonical order (canon.go) and a split clause's ranges merge in
// it, so what is retained and the MRF folded from it are bit-identical
// across worker counts and split decisions. The
// Incremental wrapper reuses the same machinery to re-ground only the
// clauses an evidence delta touches.
package grounding

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"

	"tuffy/internal/db"
	"tuffy/internal/db/tuple"
	"tuffy/internal/mln"
	"tuffy/internal/mrf"
)

// Truth encoding in predicate tables (column "truth").
const (
	TruthUnknown int64 = 0
	TruthTrue    int64 = 1
	TruthFalse   int64 = 2
)

// MaxAid is the largest atom id a TableSet assigns: a raw literal packs
// aid<<1|positive into 32 bits.
const MaxAid = 1<<31 - 1

// ErrAidSpace reports an instance with more ground atoms than MaxAid.
var ErrAidSpace = errors.New("grounding: atom id space exhausted")

// checkAidSpace refuses the atom that would be the registry's next (aid
// next) when it lies beyond MaxAid.
func checkAidSpace(next int) error {
	if next > MaxAid {
		return fmt.Errorf("%w: atom %d exceeds the limit of %d", ErrAidSpace, next, MaxAid)
	}
	return nil
}

// checkArgSpace refuses the atom whose arguments would end the registry's
// argument arena (32-bit offsets) at end.
func checkArgSpace(end int) error {
	if end > math.MaxUint32 {
		return fmt.Errorf("%w: %d atom arguments exceed the limit of %d", ErrAidSpace, end, uint32(math.MaxUint32))
	}
	return nil
}

// TableName returns the relation name for a predicate: "r" and its ID, e.g.
// r3. The ID is unique per program and always lexes as one SQL identifier,
// which the predicate's own name (is-friend, f-1, Friend beside friend)
// need not.
func TableName(p *mln.Predicate) string { return "r" + strconv.Itoa(p.ID) }

// TableSet is the relational encoding of an MLN instance: one table
// R_P(aid, a0..ak-1, truth) per predicate (Section 3.1), plus the atom
// registry mapping aids back to ground atoms.
type TableSet struct {
	DB   *db.DB
	Prog *mln.Program
	Ev   *mln.Evidence

	tables map[*mln.Predicate]*db.Table
	// atoms describes the ground atom of each aid (index 0 unused).
	atoms atomList
	// truths[aid] is the evidence truth of the atom, one of the Truth*
	// constants in a byte.
	truths []uint8
	// reg finds an atom id from (predicate, args).
	reg registry
}

// predTableSchema builds the schema for a predicate's relation.
func predTableSchema(p *mln.Predicate) tuple.Schema {
	cols := make([]tuple.Column, 0, p.Arity()+2)
	cols = append(cols, tuple.Col("aid", tuple.TInt))
	for i := range p.Args {
		cols = append(cols, tuple.Col(fmt.Sprintf("a%d", i), tuple.TInt))
	}
	cols = append(cols, tuple.Col("truth", tuple.TInt))
	return tuple.Schema{Cols: cols}
}

// BuildTables bulk-loads the predicate relations into d:
//
//   - closed-world predicates hold their evidence tuples only (absent rows
//     are false under the CWA);
//   - open predicates hold every type-consistent grounding (the candidate
//     query atoms), with evidence truth where known, unknown otherwise.
//
// Atom ids are assigned densely in insertion order, giving the aids the
// ground-clause table refers to.
func BuildTables(d *db.DB, prog *mln.Program, ev *mln.Evidence) (*TableSet, error) {
	ts := &TableSet{
		DB:     d,
		Prog:   prog,
		Ev:     ev,
		tables: make(map[*mln.Predicate]*db.Table),
		atoms:  newAtomList(),
		truths: make([]uint8, 1),
	}
	// A failure partway leaves half-built predicate tables; drop whatever
	// was created so the caller can retry the build against a clean
	// catalog instead of latching the engine unusable.
	fail := func(err error) (*TableSet, error) {
		ts.Drop()
		return nil, err
	}
	for _, pred := range prog.Preds {
		t, err := d.CreateTable(TableName(pred), predTableSchema(pred))
		if err != nil {
			return fail(err)
		}
		ts.tables[pred] = t
		if pred.Closed {
			if err := ts.loadClosed(pred, t); err != nil {
				return fail(err)
			}
		} else {
			if err := ts.loadOpen(pred, t); err != nil {
				return fail(err)
			}
		}
	}
	// Checkpoint the load: grounding only reads, so flushing here turns
	// buffer-pool evictions during (possibly parallel) grounding into clean
	// page drops instead of write-backs held under the pool lock.
	if err := d.Pool().FlushAll(); err != nil {
		return fail(err)
	}
	ts.clip()
	return ts, nil
}

// clip drops the registry's growth slack once a load is done: what stays
// resident per atom is then exactly its list entry and truth byte.
func (ts *TableSet) clip() {
	ts.atoms.clip()
	ts.truths = exact(ts.truths)
}

// Drop removes every predicate table of the set from the catalog,
// returning their pages to the engine's free lists. It is how a failed or
// canceled grounding phase tears itself down so the Engine can be
// re-Grounded in place. The TableSet must not be used afterwards.
func (ts *TableSet) Drop() {
	for pred, t := range ts.tables {
		_ = ts.DB.DropTable(t.Name())
		delete(ts.tables, pred)
	}
}

// loadChunk is how many staged rows trigger a bulk insert during table
// loading, bounding transient memory while keeping page-batched writes.
const loadChunk = 65536

func (ts *TableSet) loadClosed(pred *mln.Predicate, t *db.Table) error {
	// Batch loading (paper §3.2): rows are staged and bulk-inserted in
	// chunks instead of one page round-trip per evidence tuple.
	var rows []tuple.Row
	var loadErr error
	ts.Ev.ForEach(pred, func(args []int32, truth mln.Truth) {
		if loadErr != nil || truth != mln.True {
			// Explicit negative evidence on a closed predicate is redundant
			// under the CWA; skip the row.
			return
		}
		row, err := ts.stageAtom(pred, args, TruthTrue)
		if err != nil {
			loadErr = err
			return
		}
		rows = append(rows, row)
		if len(rows) >= loadChunk {
			loadErr = t.InsertMany(rows)
			rows = rows[:0]
		}
	})
	if loadErr != nil {
		return loadErr
	}
	return t.InsertMany(rows)
}

func (ts *TableSet) loadOpen(pred *mln.Predicate, t *db.Table) error {
	domains := make([][]int32, pred.Arity())
	total := 1
	for i, typ := range pred.Args {
		domains[i] = ts.Prog.Domain(typ).Sorted()
		total *= len(domains[i])
		if total > 50_000_000 {
			return fmt.Errorf("grounding: open predicate %s would materialize >5e7 atoms; close it or shrink domains", pred.Name)
		}
	}
	if total == 0 {
		return nil // some domain empty: no atoms
	}
	rows := make([]tuple.Row, 0, min(total, loadChunk))
	args := make([]int32, pred.Arity())
	var rec func(pos int) error
	rec = func(pos int) error {
		if pos == len(domains) {
			truth := TruthUnknown
			switch ts.Ev.TruthOf(pred, args) {
			case mln.True:
				truth = TruthTrue
			case mln.False:
				truth = TruthFalse
			}
			row, err := ts.stageAtom(pred, args, truth)
			if err != nil {
				return err
			}
			rows = append(rows, row)
			if len(rows) >= loadChunk {
				err := t.InsertMany(rows)
				rows = rows[:0]
				return err
			}
			return nil
		}
		for _, c := range domains[pos] {
			args[pos] = c
			if err := rec(pos + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0); err != nil {
		return err
	}
	return t.InsertMany(rows)
}

// stageAtom assigns the next dense aid, records the atom in the registry
// (copying args) and returns its table row for batch insertion; past MaxAid
// or the argument arena's 32-bit end it fails with ErrAidSpace and stages
// nothing.
func (ts *TableSet) stageAtom(pred *mln.Predicate, args []int32, truth int64) (tuple.Row, error) {
	if err := checkAidSpace(ts.atoms.n()); err != nil {
		return nil, err
	}
	if err := checkArgSpace(len(ts.atoms.args) + len(args)); err != nil {
		return nil, err
	}
	aid := int64(ts.atoms.n())
	row := make(tuple.Row, 0, pred.Arity()+2)
	row = append(row, tuple.I64(aid))
	for _, a := range args {
		row = append(row, tuple.I64(int64(a)))
	}
	row = append(row, tuple.I64(truth))
	ts.atoms.add(pred, args)
	ts.truths = append(ts.truths, uint8(truth))
	ts.reg.insert(&ts.atoms, aid)
	return row, nil
}

// NumAtoms returns the number of materialized atoms (all predicates).
func (ts *TableSet) NumAtoms() int { return ts.atoms.n() - 1 }

// Atom returns the ground atom for an aid. Its Args are a view into the
// registry's argument arena: read them, never write them (appending copies).
func (ts *TableSet) Atom(aid int64) mln.GroundAtom {
	return mln.GroundAtom{Pred: ts.Prog.Preds[ts.atoms.pred[aid]], Args: ts.atoms.argsOf(aid)}
}

// TruthOf returns the evidence truth recorded for an aid.
func (ts *TableSet) TruthOf(aid int64) int64 { return int64(ts.truths[aid]) }

// AidOf finds the atom id of a ground atom, if materialized.
func (ts *TableSet) AidOf(pred *mln.Predicate, args []int32) (int64, bool) {
	aid := ts.reg.find(&ts.atoms, pred, args)
	return aid, aid != 0
}

// Table returns the relation backing a predicate.
func (ts *TableSet) Table(pred *mln.Predicate) *db.Table { return ts.tables[pred] }

// Result is the output of grounding: the in-memory MRF (atoms renumbered
// densely 1..N over the atoms that appear in some ground clause), the
// mapping from MRF atom ids to table aids, and statistics.
type Result struct {
	MRF *mrf.MRF
	// TableAid maps MRF atom id -> predicate-table aid (index 0 unused);
	// aids fit 32 bits (checkAidSpace).
	TableAid []uint32
	// AtomID maps table aid -> MRF atom id (0 when the atom appears in no
	// ground clause). It ends at the largest aid that has an MRF atom; IDOf
	// also answers for the aids past it.
	AtomID []mrf.AtomID
	Stats  Stats
}

// IDOf returns the MRF atom id of a table aid, 0 when the atom appears in
// no ground clause.
func (r *Result) IDOf(aid int64) mrf.AtomID {
	if aid < 0 || aid >= int64(len(r.AtomID)) {
		return 0
	}
	return r.AtomID[aid]
}

// Stats describes grounding effort and output size.
type Stats struct {
	NumAtoms        int   // materialized candidate atoms
	NumUsedAtoms    int   // atoms appearing in ground clauses
	NumGroundedRaw  int   // ground clauses before dedup/closure
	NumClauses      int   // final ground clauses
	FixedCostCount  int   // clauses fully decided by evidence
	JoinRowsVisited int64 // tuples the grounding queries touched (effort proxy)
	// PeakBytes is an account, not a measurement: rows × columns × 8 bytes of
	// the largest grounding query output (the top-down lesion charges its
	// in-memory tables and raws instead). The bottom-up grounder streams
	// those rows and never holds them.
	PeakBytes int64
}

// absorb folds one task's or one clause's effort into s: join rows add up,
// the peak is the largest single buffer.
func (s *Stats) absorb(o Stats) {
	s.JoinRowsVisited += o.JoinRowsVisited
	s.PeakBytes = max(s.PeakBytes, o.PeakBytes)
}

// litSpan is one translated clause: arena[lo:hi] in foldRaws.
type litSpan struct{ lo, hi uint32 }

// foldRaws folds every raw of sets into the canonical Result (canon.go).
// Atoms are numbered up front, in cmpAtoms order, over every atom of a
// non-empty raw. Each raw is translated into one literal arena, sorted and
// deduplicated (x v !x is a tautology and drops). An empty raw is a clause
// evidence already decided: a positive weight adds to the fixed cost, a
// negative one nothing.
//
// Canonical sets translate into clause order unless a raw held a duplicate
// literal, so each set's clauses are checked and, only when out of order
// (the top-down lesion never sorts), stably sorted. A k-way merge across the
// sets then emits every ground clause once, in final order; equal clauses
// meet in (set, raw) order, which is the order their weights have always
// been summed in. Clauses whose weights cancel to zero drop, and the rest
// are copied into one arena of exactly their size.
func foldRaws(ts *TableSet, sets []RawSet, stats Stats) *Result {
	id := make([]mrf.AtomID, ts.atoms.n()) // by aid; 1 marks "used" until numbered
	var aids []int64
	nlits, fixed := 0, 0.0
	stats.NumGroundedRaw, stats.FixedCostCount = 0, 0
	for _, s := range sets {
		stats.NumGroundedRaw += s.n()
		nlits += len(s.lits)
		for _, v := range s.lits {
			if id[v>>1] == 0 {
				id[v>>1] = 1
				aids = append(aids, int64(v>>1))
			}
		}
	}
	slices.SortFunc(aids, func(x, y int64) int { return cmpAtoms(ts, x, y) })
	for k, aid := range aids {
		id[aid] = mrf.AtomID(k + 1)
	}

	// One run of translated clauses per set that has any, in set order.
	type run struct {
		spans  []litSpan
		weight float64
	}
	arena := make([]mrf.Lit, 0, nlits)
	seq := func(sp litSpan) []mrf.Lit { return arena[sp.lo:sp.hi] }
	cmpSpans := func(a, b litSpan) int { return slices.CompareFunc(seq(a), seq(b), cmpLit) }
	var runs []run
	for _, s := range sets {
		r := run{weight: s.weight, spans: make([]litSpan, 0, s.n())}
		for j := range s.n() {
			if len(s.raw(j)) == 0 {
				if s.weight > 0 {
					fixed += s.weight
					stats.FixedCostCount++
				}
				continue
			}
			lo := len(arena)
			for _, v := range s.raw(j) {
				l := id[v>>1]
				if v&1 == 0 {
					l = -l
				}
				arena = append(arena, l)
			}
			lits := dedupLits(sortLits(arena[lo:]))
			arena = arena[:lo+len(lits)]
			if len(lits) > 0 {
				r.spans = append(r.spans, litSpan{uint32(lo), uint32(len(arena))})
			}
		}
		if len(r.spans) > 0 {
			if !slices.IsSortedFunc(r.spans, cmpSpans) {
				slices.SortStableFunc(r.spans, cmpSpans)
			}
			runs = append(runs, r)
		}
	}

	type summed struct {
		span   litSpan
		weight float64
	}
	merged := make([]summed, 0, stats.NumGroundedRaw)
	heads := make([]int, len(runs))
	for {
		best := -1
		for i, r := range runs {
			if heads[i] < len(r.spans) && (best < 0 || cmpSpans(r.spans[heads[i]], runs[best].spans[heads[best]]) < 0) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		sp := runs[best].spans[heads[best]]
		heads[best]++
		if n := len(merged); n > 0 && slices.Equal(seq(merged[n-1].span), seq(sp)) {
			merged[n-1].weight += runs[best].weight
		} else {
			merged = append(merged, summed{sp, runs[best].weight})
		}
	}

	merged = slices.DeleteFunc(merged, func(c summed) bool { return c.weight == 0 })
	keptLits := 0
	for _, c := range merged {
		keptLits += int(c.span.hi - c.span.lo)
	}
	m := mrf.New(len(aids))
	m.FixedCost = fixed
	m.Reserve(len(merged), keptLits)
	for _, c := range merged {
		m.Append(c.weight, seq(c.span))
	}
	m.Atoms = make([]mln.GroundAtom, len(aids)+1)
	tableAid := make([]uint32, len(aids)+1)
	maxAid := int64(0)
	for k, aid := range aids {
		m.Atoms[k+1], tableAid[k+1] = ts.Atom(aid), uint32(aid)
		maxAid = max(maxAid, aid)
	}
	// id numbered every used aid above and is 0 for every other one.
	atomID := id[:maxAid+1]
	stats.NumAtoms = ts.NumAtoms()
	stats.NumUsedAtoms = len(aids)
	stats.NumClauses = len(merged)
	return &Result{MRF: m, TableAid: tableAid, AtomID: atomID, Stats: stats}
}

// cmpLit orders MRF literals by atom id, the negative one first.
func cmpLit(a, b mrf.Lit) int {
	if c := cmp.Compare(mrf.Atom(a), mrf.Atom(b)); c != 0 {
		return c
	}
	return cmp.Compare(a, b)
}

// sortLits sorts a short literal slice in place (insertion sort) by cmpLit.
func sortLits(lits []mrf.Lit) []mrf.Lit {
	for i := 1; i < len(lits); i++ {
		for j := i; j > 0 && cmpLit(lits[j], lits[j-1]) < 0; j-- {
			lits[j], lits[j-1] = lits[j-1], lits[j]
		}
	}
	return lits
}

// dedupLits removes duplicates from sorted literals in place; returns nil
// for tautologies (l and !l).
func dedupLits(lits []mrf.Lit) []mrf.Lit {
	out := lits[:0]
	for i, l := range lits {
		if i > 0 && l == lits[i-1] {
			continue
		}
		if i > 0 && mrf.Atom(l) == mrf.Atom(lits[i-1]) && l != lits[i-1] {
			return nil // x v !x
		}
		out = append(out, l)
	}
	return out
}
