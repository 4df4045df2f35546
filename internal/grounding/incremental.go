package grounding

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"tuffy/internal/db/tuple"
	"tuffy/internal/mln"
	"tuffy/internal/mrf"
)

// Incremental grounding (the epoch Engine's delta path).
//
// Bottom-up grounding computes each first-order clause's groundings with one
// SQL query, which gives exact per-clause provenance: the only predicates
// that can change a clause's groundings are the ones appearing in its
// literals. Incremental retains every clause's raw groundings as that query
// left them (one RawSet, in canonical order); when evidence changes, only
// clauses whose provenance intersects the changed predicates re-run their
// SQL and are diffed, raw for raw, against what was retained — which needs
// the literals of a raw in canonical order and nothing else. The assembled
// network does not depend on the order of raws or of literals at all
// (canon.go: finish and the assembler sort atoms and clauses themselves), so
// folding the diff into the assembler is bit-identical to a full
// GroundBottomUp on the patched tables and to a fresh Ground over the merged
// evidence. The order of raws inside a set is kept canonical for the
// snapshot, which stores the retained sets byte for byte.

// ClausePreds returns the grounding provenance of a first-order clause: the
// set of predicates its (non-builtin) literals read.
func ClausePreds(c *mln.Clause) map[*mln.Predicate]bool {
	out := make(map[*mln.Predicate]bool)
	for _, l := range c.Lits {
		if !l.IsBuiltinEq() {
			out[l.Pred] = true
		}
	}
	return out
}

// Incremental wraps a TableSet with the cached per-clause raw groundings
// needed to re-ground selectively. It is single-writer: the Engine serializes
// UpdateEvidence calls.
type Incremental struct {
	TS   *TableSet
	Opts Options

	perClause []RawSet
	perStats  []Stats
	provs     []map[*mln.Predicate]bool

	// asm maintains the canonical assembled Result under raw-level diffs,
	// making Reground O(diff + output) instead of O(total raws). Only an
	// update reads it, so it is built from perClause by the first Reground
	// (ensureAssembler): an engine that only answers queries holds the
	// network and the flat raws, nothing else. The active closure is a
	// whole-MRF transform with no incremental form, so with UseClosure the
	// assembler stays nil and Reground re-folds from scratch.
	asm *incAssembler
}

func newIncremental(ts *TableSet, opts Options, perClause []RawSet, perStats []Stats) *Incremental {
	inc := &Incremental{
		TS:        ts,
		Opts:      opts,
		perClause: perClause,
		perStats:  perStats,
		provs:     make([]map[*mln.Predicate]bool, len(ts.Prog.Clauses)),
	}
	for i, c := range ts.Prog.Clauses {
		inc.provs[i] = ClausePreds(c)
	}
	return inc
}

// ensureAssembler builds the incremental assembler over the cached raws if
// this grounder can use one and has none yet, and reports how long that took.
func (inc *Incremental) ensureAssembler() time.Duration {
	if inc.asm != nil || inc.Opts.UseClosure {
		return 0
	}
	start := time.Now()
	inc.asm = newIncAssembler(inc.TS, len(inc.perClause))
	inc.asm.build(inc.perClause)
	return time.Since(start)
}

// NewIncremental performs a full bottom-up grounding and retains the
// per-clause raw groundings for later selective re-grounds.
func NewIncremental(ctx context.Context, ts *TableSet, opts Options) (*Incremental, *Result, error) {
	n := len(ts.Prog.Clauses)
	inc := newIncremental(ts, opts, make([]RawSet, n), make([]Stats, n))
	if err := groundSelectedSQL(ctx, ts, opts, inc.perClause, inc.perStats, nil); err != nil {
		return nil, nil, err
	}
	return inc, assembleResult(ts, inc.perClause, inc.perStats, opts), nil
}

// RegroundInfo reports what a selective re-ground actually did.
type RegroundInfo struct {
	ClausesRerun   int   // grounding queries re-executed
	ClausesTotal   int   // first-order clauses in the program
	RerunJoinRows  int64 // join rows the re-run queries visited
	RawsAdded      int   // raw groundings present only in the new epoch
	RawsRemoved    int   // raw groundings present only in the old epoch
	TouchedAids    int   // distinct table atoms in changed raw groundings
	TouchedAtoms   int   // those that appear in the new MRF
	FixedCostDelta bool  // evidence-decided cost changed
	// AssemblerBuild is the one-off cost of building the incremental
	// assembler; zero on every Reground after the first.
	AssemblerBuild time.Duration
}

// Reground re-runs the grounding queries of every clause whose provenance
// intersects changed, reusing cached raws for the rest, and returns the
// re-assembled Result plus the raw-level diff against the previous ground.
//
// touchedNew flags the new-MRF atom ids that occur in any added or removed
// raw grounding. A ground clause none of whose atoms is flagged, or lacks a
// counterpart in the other epoch (the active closure admits and drops
// clauses only together with such an atom), is the same clause with the same
// weight in both epochs — which is what partition.Repair relies on to reuse
// every untouched part. On error (including cancellation) the cache is left
// on the previous ground, so the delta is retryable.
func (inc *Incremental) Reground(ctx context.Context, changed map[*mln.Predicate]bool) (*Result, []bool, RegroundInfo, error) {
	n := len(inc.TS.Prog.Clauses)
	info := RegroundInfo{ClausesTotal: n}
	sel := make([]bool, n)
	for i := range sel {
		for p := range inc.provs[i] {
			if changed[p] {
				sel[i] = true
				info.ClausesRerun++
				break
			}
		}
	}
	// Re-run clauses overwrite their slots in a copy of the cache; the rest
	// of the copy shares the retained sets.
	newClause, newStats := slices.Clone(inc.perClause), slices.Clone(inc.perStats)
	if err := groundSelectedSQL(ctx, inc.TS, inc.Opts, newClause, newStats, sel); err != nil {
		return nil, nil, info, err
	}

	// Raw-level diff of the re-run clauses, in the shared aid space (aids are
	// stable across ApplyDelta: the registry is append-only and re-inserted
	// closed tuples reuse their original aid).
	touchedAids := make(map[int64]struct{})
	type clauseDiff struct {
		idx            int
		added, removed RawSet
	}
	var diffs []clauseDiff
	for i := range sel {
		if !sel[i] {
			continue
		}
		added, removed, fixed := diffRaws(inc.perClause[i], newClause[i], touchedAids)
		info.RawsAdded += added.n()
		info.RawsRemoved += removed.n()
		info.FixedCostDelta = info.FixedCostDelta || fixed
		info.RerunJoinRows += newStats[i].JoinRowsVisited
		if added.n() > 0 || removed.n() > 0 {
			diffs = append(diffs, clauseDiff{idx: i, added: added, removed: removed})
		}
	}
	info.TouchedAids = len(touchedAids)

	var res *Result
	if inc.Opts.UseClosure {
		res = assembleResult(inc.TS, newClause, newStats, inc.Opts)
	} else {
		info.AssemblerBuild = inc.ensureAssembler()
		for _, d := range diffs {
			inc.asm.apply(d.idx, d.added, d.removed)
		}
		res = inc.asm.result(newStats)
	}
	touchedNew := make([]bool, res.MRF.NumAtoms+1)
	for aid := range touchedAids {
		if id := res.IDOf(aid); id != 0 {
			touchedNew[id] = true
			info.TouchedAtoms++
		}
	}
	inc.perClause = newClause
	inc.perStats = newStats
	return res, touchedNew, info, nil
}

// diffRaws multiset-diffs one clause's old and new raw groundings, adding the
// atoms of every differing raw to touched. It returns the raws present only
// on each side and whether an evidence-decided (empty) grounding changed.
// Raws are compared within one TableSet's aid space, literal for literal.
func diffRaws(old, cur RawSet, touched map[int64]struct{}) (added, removed RawSet, fixedDelta bool) {
	added.weight, removed.weight = cur.weight, old.weight
	var buf []byte
	key := func(raw []uint32) []byte {
		buf = buf[:0]
		for _, v := range raw {
			buf = binary.LittleEndian.AppendUint32(buf, v)
		}
		return buf
	}
	// left[slot[k]] counts the old copies of raw k not yet paired off; the
	// lookups on string(buf) do not allocate.
	slot := make(map[string]int32, old.n())
	var left []int32
	for j := 0; j < old.n(); j++ {
		k := key(old.raw(j))
		if i, ok := slot[string(k)]; ok {
			left[i]++
		} else {
			slot[string(k)] = int32(len(left))
			left = append(left, 1)
		}
	}
	unpaired := func(raw []uint32, into *RawSet) {
		into.appendRaw(raw)
		if len(raw) == 0 {
			fixedDelta = true
		}
		for _, v := range raw {
			touched[int64(v>>1)] = struct{}{}
		}
	}
	for j := 0; j < cur.n(); j++ {
		raw := cur.raw(j)
		if i, ok := slot[string(key(raw))]; ok && left[i] > 0 {
			left[i]--
		} else {
			unpaired(raw, &added)
		}
	}
	for j := 0; j < old.n(); j++ {
		raw := old.raw(j)
		if i := slot[string(key(raw))]; left[i] > 0 {
			left[i]--
			unpaired(raw, &removed)
		}
	}
	return added, removed, fixedDelta
}

// AtomMaps builds the old-id -> new-id and new-id -> old-id translations
// between two Results of the same TableSet (0 = no counterpart). Both sides
// index atoms by the stable table aid.
func AtomMaps(old, cur *Result) (oldToNew, newToOld []mrf.AtomID) {
	oldToNew = make([]mrf.AtomID, old.MRF.NumAtoms+1)
	newToOld = make([]mrf.AtomID, cur.MRF.NumAtoms+1)
	for i := 1; i <= old.MRF.NumAtoms; i++ {
		if id := cur.IDOf(old.TableAid[i]); id != 0 {
			oldToNew[i] = id
			newToOld[id] = mrf.AtomID(i)
		}
	}
	return oldToNew, newToOld
}

// DeltaUndo records how to roll an ApplyDelta back: the inverse evidence
// delta plus the reverse table operations, undone in reverse order.
type DeltaUndo struct {
	ts  *TableSet
	inv mln.Delta
	log []tableUndo
}

type tableUndo struct {
	kind     byte // 'u' update, 'i' insert (undo deletes), 'd' delete (undo reinserts)
	pred     *mln.Predicate
	aid      int64
	args     []int32
	oldTruth int64
}

// ApplyDelta patches the evidence and the predicate relations for one
// evidence delta:
//
//   - open predicates materialize every type-consistent atom, so a truth
//     change is an UPDATE of the row's truth column;
//   - closed predicates store evidence-true rows only (CWA), so setting a
//     tuple true INSERTs its row (reusing the atom's original aid if it was
//     ever materialized) and anything else DELETEs it.
//
// On success it returns the undo record; on failure it rolls back whatever
// was applied and the tables and evidence are as before. Deltas must stay
// inside the existing typed domains (mln.ErrConstantNotInDomain otherwise):
// new constants change the candidate-atom universe of open predicates, which
// is a full re-Ground, not a patch.
func (ts *TableSet) ApplyDelta(delta mln.Delta) (*DeltaUndo, error) {
	inv, err := ts.Ev.Apply(delta)
	if err != nil {
		return nil, err
	}
	undo := &DeltaUndo{ts: ts, inv: inv}
	for _, op := range delta.Ops {
		if err := ts.applyOp(op, undo); err != nil {
			if rbErr := undo.Rollback(); rbErr != nil {
				return nil, fmt.Errorf("applying delta: %w (rollback also failed: %v)", err, rbErr)
			}
			return nil, err
		}
	}
	return undo, nil
}

func (ts *TableSet) applyOp(op mln.DeltaOp, undo *DeltaUndo) error {
	pred := op.Pred
	t := ts.tables[pred]
	if t == nil {
		return fmt.Errorf("grounding: no relation for predicate %s", pred.Name)
	}
	if pred.Closed {
		// Explicit false on a closed predicate is the CWA default: row absent.
		want := op.Truth == mln.True
		aid, staged := ts.AidOf(pred, op.Args)
		present := staged && ts.TruthOf(aid) == TruthTrue
		switch {
		case want && !present:
			if !staged {
				row, err := ts.stageAtom(pred, op.Args, TruthTrue)
				if err != nil {
					return err
				}
				aid = int64(ts.NumAtoms())
				if err := t.Insert(row); err != nil {
					ts.truths[aid] = uint8(TruthFalse) // registry keeps the atom; no row
					return err
				}
			} else {
				row := make(tuple.Row, 0, pred.Arity()+2)
				row = append(row, tuple.I64(aid))
				for _, a := range op.Args {
					row = append(row, tuple.I64(int64(a)))
				}
				row = append(row, tuple.I64(TruthTrue))
				if err := t.Insert(row); err != nil {
					return err
				}
				ts.truths[aid] = uint8(TruthTrue)
			}
			undo.log = append(undo.log, tableUndo{kind: 'i', pred: pred, aid: aid})
		case !want && present:
			if _, err := ts.DB.Exec(fmt.Sprintf("DELETE FROM %s WHERE aid = %d", TableName(pred), aid)); err != nil {
				return err
			}
			ts.truths[aid] = uint8(TruthFalse)
			undo.log = append(undo.log, tableUndo{
				kind: 'd', pred: pred, aid: aid, args: append([]int32(nil), op.Args...),
			})
		}
		return nil
	}

	aid, ok := ts.AidOf(pred, op.Args)
	if !ok {
		return fmt.Errorf("grounding: atom %s%v not materialized; delta constants must predate Ground",
			pred.Name, op.Args)
	}
	newTruth := TruthUnknown
	switch op.Truth {
	case mln.True:
		newTruth = TruthTrue
	case mln.False:
		newTruth = TruthFalse
	}
	old := ts.TruthOf(aid)
	if old == newTruth {
		return nil
	}
	if _, err := ts.DB.Exec(fmt.Sprintf("UPDATE %s SET truth = %d WHERE aid = %d",
		TableName(pred), newTruth, aid)); err != nil {
		return err
	}
	ts.truths[aid] = uint8(newTruth)
	undo.log = append(undo.log, tableUndo{kind: 'u', pred: pred, aid: aid, oldTruth: old})
	return nil
}

// Inverse returns the evidence delta that undoes the applied one (the ops
// reversed, retractions re-asserting the old truth). Applying it through a
// fresh UpdateEvidence compensates a committed update — the serving layer
// uses it to back out of a partially-propagated multi-backend update.
func (u *DeltaUndo) Inverse() mln.Delta { return u.inv }

// Rollback restores the predicate relations and the evidence to their state
// before ApplyDelta. It is safe to call once, either because the caller's
// re-ground failed or because ApplyDelta itself aborted midway.
func (u *DeltaUndo) Rollback() error {
	for i := len(u.log) - 1; i >= 0; i-- {
		e := u.log[i]
		t := u.ts.tables[e.pred]
		switch e.kind {
		case 'u':
			if _, err := u.ts.DB.Exec(fmt.Sprintf("UPDATE %s SET truth = %d WHERE aid = %d",
				TableName(e.pred), e.oldTruth, e.aid)); err != nil {
				return err
			}
			u.ts.truths[e.aid] = uint8(e.oldTruth)
		case 'i':
			if _, err := u.ts.DB.Exec(fmt.Sprintf("DELETE FROM %s WHERE aid = %d",
				TableName(e.pred), e.aid)); err != nil {
				return err
			}
			u.ts.truths[e.aid] = uint8(TruthFalse)
		case 'd':
			row := make(tuple.Row, 0, e.pred.Arity()+2)
			row = append(row, tuple.I64(e.aid))
			for _, a := range e.args {
				row = append(row, tuple.I64(int64(a)))
			}
			row = append(row, tuple.I64(TruthTrue))
			if err := t.Insert(row); err != nil {
				return err
			}
			u.ts.truths[e.aid] = uint8(TruthTrue)
		}
		u.log = u.log[:i]
	}
	if _, err := u.ts.Ev.Apply(u.inv); err != nil {
		return err
	}
	u.inv = mln.Delta{}
	return nil
}
