package grounding

import (
	"fmt"
	"math"
	"slices"

	"tuffy/internal/codec"
	"tuffy/internal/db"
	"tuffy/internal/db/tuple"
	"tuffy/internal/mln"
)

// Snapshot export/import: the pieces of grounded state the engine's
// durability layer persists so a reopened DataDir can serve without
// re-running grounding SQL.
//
// The atom registry (aid -> atom, truth) is what makes a restore exact:
// aids are assigned in insertion order, so re-staging the registry in aid
// order reproduces the identical aid space, and the cached per-clause raw
// groundings (which reference aids) remain valid. Physical row order in
// the rebuilt predicate tables may differ from the original build, but
// canon.go's order makes what every later Reground retains independent of
// row and join order, so the engine stays bit-identical to a never-crashed
// instance.

// SnapAtom is one registry entry: the predicate (as an index into
// Program.Preds), the argument constants, and the recorded evidence truth.
type SnapAtom struct {
	Pred  int32
	Args  []int32
	Truth int64
}

// ExportAtoms dumps the atom registry in aid order (aid 1 first).
func (ts *TableSet) ExportAtoms() ([]SnapAtom, error) {
	idx := make(map[*mln.Predicate]int32, len(ts.Prog.Preds))
	for i, p := range ts.Prog.Preds {
		idx[p] = int32(i)
	}
	out := make([]SnapAtom, 0, len(ts.atoms)-1)
	for aid := 1; aid < len(ts.atoms); aid++ {
		a := ts.atoms[aid]
		pi, ok := idx[a.Pred]
		if !ok {
			return nil, fmt.Errorf("grounding: registry atom %d references a predicate outside the program", aid)
		}
		out = append(out, SnapAtom{Pred: pi, Args: a.Args, Truth: ts.truths[aid]})
	}
	return out, nil
}

// Raws returns the cached per-clause raw groundings and their grounding
// stats, in first-order-clause order. Both are shared with the grounder:
// callers read them (under the engine's update lock), never modify them.
func (inc *Incremental) Raws() ([]RawSet, []Stats) { return inc.perClause, inc.perStats }

// Encode writes the set in the snapshot's raw encoding: the raw count, then
// per raw the clause weight, the literal count and the literals.
func (s RawSet) Encode(w *codec.Enc) {
	w.U32(uint32(s.n()))
	for j := 0; j < s.n(); j++ {
		raw := s.raw(j)
		w.F64(s.weight)
		w.U32(uint32(len(raw)))
		for _, v := range raw {
			w.U64(v)
		}
	}
}

// DecodeRawSet reads what Encode wrote. Every count is checked against the
// bytes left before anything is sized by it, and a set whose raws disagree
// on weight is malformed: one weight per first-order clause is what the
// assembler's exact weight sums rest on.
func DecodeRawSet(r *codec.Dec) RawSet {
	n := r.Count(12)
	if n == 0 {
		return RawSet{}
	}
	s := RawSet{off: make([]uint32, n+1)}
	for j := 0; j < n; j++ {
		w := r.F64()
		if j == 0 {
			s.weight = w
		} else if math.Float64bits(w) != math.Float64bits(s.weight) {
			r.Failf("raw %d has weight %v, the clause's other raws %v", j, w, s.weight)
		}
		for k := r.Count(8); k > 0; k-- {
			s.lits = append(s.lits, r.U64())
		}
		s.off[j+1] = uint32(len(s.lits))
	}
	s.lits = slices.Clone(s.lits) // exact size: append's slack would stay resident
	return s
}

// RestoreTables rebuilds a TableSet from a snapshot registry: the
// predicate relations are recreated and the atoms re-staged in aid order,
// reproducing the exact aid space of the snapshotted instance without any
// domain enumeration. ev must be the merged evidence the snapshot was
// taken under. Closed predicates get rows only for evidence-true atoms
// (the CWA invariant ApplyDelta maintains); open predicates get every
// registry atom with its recorded truth.
func RestoreTables(d *db.DB, prog *mln.Program, ev *mln.Evidence, atoms []SnapAtom) (*TableSet, error) {
	ts := &TableSet{
		DB:     d,
		Prog:   prog,
		Ev:     ev,
		tables: make(map[*mln.Predicate]*db.Table),
		aidOf:  make(map[*mln.Predicate]map[string]int64),
		atoms:  make([]mln.GroundAtom, 1),
		truths: make([]int64, 1),
	}
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
	}
	staged := make(map[*mln.Predicate][]tuple.Row)
	for _, sa := range atoms {
		if int(sa.Pred) < 0 || int(sa.Pred) >= len(prog.Preds) {
			return fail(fmt.Errorf("grounding: snapshot atom references predicate %d of %d", sa.Pred, len(prog.Preds)))
		}
		pred := prog.Preds[sa.Pred]
		if len(sa.Args) != pred.Arity() {
			return fail(fmt.Errorf("grounding: snapshot atom for %s has %d args", pred.Name, len(sa.Args)))
		}
		row := ts.stageAtom(pred, sa.Args, sa.Truth)
		if pred.Closed && sa.Truth != TruthTrue {
			continue // registry-only: no relation row under the CWA
		}
		staged[pred] = append(staged[pred], row)
		if len(staged[pred]) >= loadChunk {
			if err := ts.tables[pred].InsertMany(staged[pred]); err != nil {
				return fail(err)
			}
			staged[pred] = staged[pred][:0]
		}
	}
	for pred, rows := range staged {
		if err := ts.tables[pred].InsertMany(rows); err != nil {
			return fail(err)
		}
	}
	if err := d.Pool().FlushAll(); err != nil {
		return fail(err)
	}
	return ts, nil
}

// RestoreIncremental rebuilds the incremental grounder from snapshot raws
// without re-running any grounding SQL: the cached per-clause raws are
// checked against ts's (restored, identical) aid space and folded through
// the incremental assembler — eagerly, unlike NewIncremental, because both
// callers (WAL replay and the first update after a clean warm open) apply a
// delta next. The returned Result is the assembled network — a function of
// the raws alone, so bit-identical to the snapshotted one — which callers may
// use to cross-check the snapshot's own MRF.
func RestoreIncremental(ts *TableSet, opts Options, raws []RawSet, stats []Stats) (*Incremental, *Result, error) {
	n := len(ts.Prog.Clauses)
	if len(raws) != n || len(stats) != n {
		return nil, nil, fmt.Errorf("grounding: snapshot has %d clause raw sets for %d clauses", len(raws), n)
	}
	maxAid := uint64(len(ts.atoms) - 1)
	for _, s := range raws {
		for _, v := range s.lits {
			if aid := v >> 1; aid < 1 || aid > maxAid {
				return nil, nil, fmt.Errorf("grounding: snapshot raw references aid %d of %d", aid, maxAid)
			}
		}
	}
	inc := newIncremental(ts, opts, raws, stats)
	if opts.UseClosure {
		return inc, assembleResult(ts, raws, stats, opts), nil
	}
	inc.ensureAssembler()
	return inc, inc.asm.result(stats), nil
}
