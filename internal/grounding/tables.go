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
	"fmt"
	"slices"
	"sort"
	"strings"

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

// TableName returns the relation name for a predicate, e.g. r_cat.
func TableName(p *mln.Predicate) string { return "r_" + strings.ToLower(p.Name) }

// TableSet is the relational encoding of an MLN instance: one table
// R_P(aid, a0..ak-1, truth) per predicate (Section 3.1), plus the atom
// registry mapping aids back to ground atoms.
type TableSet struct {
	DB   *db.DB
	Prog *mln.Program
	Ev   *mln.Evidence

	tables map[*mln.Predicate]*db.Table
	// atoms[aid] describes the ground atom with that id (index 0 unused).
	atoms []mln.GroundAtom
	// truths[aid] is the evidence truth of the atom.
	truths []int64
	// aidOf finds an atom id from (predicate, packed args).
	aidOf map[*mln.Predicate]map[string]int64
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
		aidOf:  make(map[*mln.Predicate]map[string]int64),
		atoms:  make([]mln.GroundAtom, 1), // index 0 unused
		truths: make([]int64, 1),
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
		ts.aidOf[pred] = make(map[string]int64)
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
	// Index the argument columns that clause literals bind to constants
	// (e.g. cat(p, "net")): the compiled grounding queries filter on them
	// with equality, and the optimizer's access-path choice (plan.IndexMeta)
	// can then take a hash-index point lookup over a full scan when the
	// cost model says it wins.
	constCols := make(map[*mln.Predicate]map[int]bool)
	for _, c := range prog.Clauses {
		for _, l := range c.Lits {
			if l.IsBuiltinEq() {
				continue
			}
			for i, a := range l.Args {
				if a.IsVar {
					continue
				}
				if constCols[l.Pred] == nil {
					constCols[l.Pred] = make(map[int]bool)
				}
				constCols[l.Pred][i] = true
			}
		}
	}
	for pred, cols := range constCols {
		t := ts.tables[pred]
		if t == nil {
			continue
		}
		for argIdx := range cols {
			if _, err := t.BuildHashIndex([]int{argIdx + 1}); err != nil {
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
	return ts, nil
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
		rows = append(rows, ts.stageAtom(pred, args, TruthTrue))
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
			cp := make([]int32, len(args))
			copy(cp, args)
			rows = append(rows, ts.stageAtom(pred, cp, truth))
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

// stageAtom assigns the next dense aid, records the atom in the registry and
// returns its table row for batch insertion. args must not be reused by the
// caller.
func (ts *TableSet) stageAtom(pred *mln.Predicate, args []int32, truth int64) tuple.Row {
	aid := int64(len(ts.atoms))
	row := make(tuple.Row, 0, pred.Arity()+2)
	row = append(row, tuple.I64(aid))
	for _, a := range args {
		row = append(row, tuple.I64(int64(a)))
	}
	row = append(row, tuple.I64(truth))
	ts.atoms = append(ts.atoms, mln.GroundAtom{Pred: pred, Args: args})
	ts.truths = append(ts.truths, truth)
	ts.aidOf[pred][mln.GroundAtom{Pred: pred, Args: args}.Key()] = aid
	return row
}

// NumAtoms returns the number of materialized atoms (all predicates).
func (ts *TableSet) NumAtoms() int { return len(ts.atoms) - 1 }

// Atom returns the ground atom for an aid.
func (ts *TableSet) Atom(aid int64) mln.GroundAtom { return ts.atoms[aid] }

// TruthOf returns the evidence truth recorded for an aid.
func (ts *TableSet) TruthOf(aid int64) int64 { return ts.truths[aid] }

// AidOf finds the atom id of a ground atom, if materialized.
func (ts *TableSet) AidOf(pred *mln.Predicate, args []int32) (int64, bool) {
	aid, ok := ts.aidOf[pred][mln.GroundAtom{Pred: pred, Args: args}.Key()]
	return aid, ok
}

// Table returns the relation backing a predicate.
func (ts *TableSet) Table(pred *mln.Predicate) *db.Table { return ts.tables[pred] }

// Result is the output of grounding: the in-memory MRF (atoms renumbered
// densely 1..N over the atoms that appear in some ground clause), the
// mapping from MRF atom ids to table aids, and statistics.
type Result struct {
	MRF *mrf.MRF
	// TableAid maps MRF atom id -> predicate-table aid (index 0 unused).
	TableAid []int64
	// AtomID finds the MRF atom for a table aid (0 when the atom appears in
	// no ground clause).
	AtomID map[int64]mrf.AtomID
	Stats  Stats
}

// Stats describes grounding effort and output size.
type Stats struct {
	NumAtoms        int   // materialized candidate atoms
	NumUsedAtoms    int   // atoms appearing in ground clauses
	NumGroundedRaw  int   // ground clauses before dedup/closure
	NumClauses      int   // final ground clauses
	FixedCostCount  int   // clauses fully decided by evidence
	JoinRowsVisited int64 // tuples the grounding queries touched (effort proxy)
	PeakBytes       int64 // peak transient memory the grounder held (account)
}

// absorb folds one task's or one clause's effort into s: join rows add up,
// the peak is the largest single buffer.
func (s *Stats) absorb(o Stats) {
	s.JoinRowsVisited += o.JoinRowsVisited
	s.PeakBytes = max(s.PeakBytes, o.PeakBytes)
}

// clauseAccumulator dedups ground clauses by canonical literal set, summing
// weights of duplicates (standard MLN semantics), and assigns dense MRF atom
// ids on first use.
type clauseAccumulator struct {
	ts       *TableSet
	atomID   map[int64]mrf.AtomID
	tableAid []int64
	clauses  map[string]*mrf.Clause
	order    []string
	fixed    float64
	fixedN   int
	raw      int
}

func newClauseAccumulator(ts *TableSet) *clauseAccumulator {
	return &clauseAccumulator{
		ts:       ts,
		atomID:   make(map[int64]mrf.AtomID),
		tableAid: []int64{0},
		clauses:  make(map[string]*mrf.Clause),
	}
}

func (ca *clauseAccumulator) mrfAtom(aid int64) mrf.AtomID {
	if id, ok := ca.atomID[aid]; ok {
		return id
	}
	id := mrf.AtomID(len(ca.tableAid))
	ca.atomID[aid] = id
	ca.tableAid = append(ca.tableAid, aid)
	return id
}

// add registers one raw grounding (literals aid<<1|positive). An empty raw
// is a clause already decided by evidence: a positive weight contributes |w|
// of fixed cost, a negative weight contributes nothing. Duplicate clauses
// have their weights summed.
func (ca *clauseAccumulator) add(weight float64, raw []uint64) {
	ca.raw++
	if len(raw) == 0 {
		if weight > 0 {
			ca.fixed += weight
			ca.fixedN++
		}
		return
	}
	lits := make([]mrf.Lit, len(raw))
	for i, v := range raw {
		l := ca.mrfAtom(int64(v >> 1))
		if v&1 == 0 {
			l = -l
		}
		lits[i] = l
	}
	sortLits(lits)
	// Drop duplicate literals; a clause with both l and !l is a tautology.
	lits = dedupLits(lits)
	if lits == nil {
		return // tautology: satisfied in every world
	}
	key := litsKey(lits)
	if c, ok := ca.clauses[key]; ok {
		c.Weight += weight
		return
	}
	ca.clauses[key] = &mrf.Clause{Weight: weight, Lits: lits}
	ca.order = append(ca.order, key)
}

func sortLits(lits []mrf.Lit) {
	for i := 1; i < len(lits); i++ {
		for j := i; j > 0 && litLess(lits[j], lits[j-1]); j-- {
			lits[j], lits[j-1] = lits[j-1], lits[j]
		}
	}
}

func litLess(a, b mrf.Lit) bool {
	aa, ab := mrf.Atom(a), mrf.Atom(b)
	if aa != ab {
		return aa < ab
	}
	return a < b
}

// dedupLits removes duplicates; returns nil for tautologies (l and !l).
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

func litsKey(lits []mrf.Lit) string {
	var b strings.Builder
	b.Grow(len(lits) * 5)
	for _, l := range lits {
		v := uint32(l)
		b.WriteByte(byte(v))
		b.WriteByte(byte(v >> 8))
		b.WriteByte(byte(v >> 16))
		b.WriteByte(byte(v >> 24))
	}
	return b.String()
}

// finish builds the Result in canonical form: atom ids are assigned by
// sorting atoms on their aid-independent descriptors (cmpAtoms — see
// canon.go) and clauses are sorted by their renumbered literal sequences. The
// output is therefore a pure function of the logical ground clauses,
// independent of aid numbering, raw order and accumulation order — which is
// what lets the incremental assembler (assemble.go) maintain the same Result
// under small raw diffs and stay bit-identical to a full re-ground. Clauses
// whose summed weight cancelled to zero are dropped.
func (ca *clauseAccumulator) finish(stats Stats) *Result {
	n := len(ca.tableAid) - 1
	order := make([]mrf.AtomID, n)
	for i := range order {
		order[i] = mrf.AtomID(i + 1)
	}
	slices.SortFunc(order, func(x, y mrf.AtomID) int {
		return cmpAtoms(ca.ts.Atom(ca.tableAid[x]), ca.ts.Atom(ca.tableAid[y]))
	})
	remap := make([]mrf.AtomID, n+1)
	tableAid := make([]int64, n+1)
	atomID := make(map[int64]mrf.AtomID, n)
	for idx, old := range order {
		id := mrf.AtomID(idx + 1)
		remap[old] = id
		tableAid[id] = ca.tableAid[old]
		atomID[ca.tableAid[old]] = id
	}

	m := mrf.New(n)
	m.FixedCost = ca.fixed
	m.Atoms = make([]mln.GroundAtom, n+1)
	for i := 1; i <= n; i++ {
		m.Atoms[i] = ca.ts.Atom(tableAid[i])
	}
	clauses := make([]mrf.Clause, 0, len(ca.order))
	for _, key := range ca.order {
		c := ca.clauses[key]
		if c.Weight == 0 {
			continue
		}
		lits := make([]mrf.Lit, len(c.Lits))
		for j, l := range c.Lits {
			id := remap[mrf.Atom(l)]
			if !mrf.Pos(l) {
				id = -id
			}
			lits[j] = id
		}
		sortLits(lits)
		clauses = append(clauses, mrf.Clause{Weight: c.Weight, Lits: lits})
	}
	sort.Slice(clauses, func(x, y int) bool { return litsLess(clauses[x].Lits, clauses[y].Lits) })
	m.Clauses = clauses
	stats.NumAtoms = ca.ts.NumAtoms()
	stats.NumUsedAtoms = n
	stats.NumGroundedRaw = ca.raw
	stats.NumClauses = len(m.Clauses)
	stats.FixedCostCount = ca.fixedN
	return &Result{MRF: m, TableAid: tableAid, AtomID: atomID, Stats: stats}
}

// litsLess orders two canonical literal sequences element-wise by
// (atom id, sign), shorter-prefix first. Because canonical atom ids are
// themselves descriptor-sorted, this order — and with it the whole clause
// list — is independent of aid numbering.
func litsLess(a, b []mrf.Lit) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return litLess(a[i], b[i])
		}
	}
	return len(a) < len(b)
}
