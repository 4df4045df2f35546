package tuffy

import (
	"context"
	"errors"
	"fmt"
	"time"

	"tuffy/internal/grounding"
	"tuffy/internal/mln"
	"tuffy/internal/mrf"
	"tuffy/internal/partition"
	"tuffy/internal/search"
)

// UpdateResult reports what one UpdateEvidence did: how much of the
// grounding was re-run, how the grounded MRF changed, and how much of the
// derived state was repaired rather than recomputed.
type UpdateResult struct {
	// Epoch is the generation now being served (unchanged when Identical).
	Epoch uint64
	// Identical means the delta did not change the grounded network: the
	// current epoch was kept and every cache remains valid.
	Identical bool

	// ClausesRerun / ClausesTotal count the grounding queries re-executed vs
	// the program's first-order clauses.
	ClausesRerun int
	ClausesTotal int
	// RawsAdded / RawsRemoved is the raw-grounding diff between the epochs.
	RawsAdded   int
	RawsRemoved int
	// TouchedAtoms counts new-epoch atoms incident to any changed grounding.
	TouchedAtoms int

	// ClausesAdded / ClausesRemoved / ClausesReweighted describe the ground-
	// clause patch between the epochs' MRFs.
	ClausesAdded      int
	ClausesRemoved    int
	ClausesReweighted int

	// ComponentsReused / PartsReused count derived structures carried over
	// from the previous epoch (0 when that epoch had not materialized them).
	ComponentsReused int
	PartsReused      int

	// Inverse is the evidence delta that undoes this update; applying it via
	// a later UpdateEvidence restores the previous logical state (and, by
	// canonicalization, a bit-identical grounded network).
	Inverse mln.Delta

	// UpdateTime is the wall-clock cost of the whole update, Materialized
	// included.
	UpdateTime time.Duration
	// Materialized is the part of UpdateTime spent building update state
	// the engine defers until an update asks for it: the predicate tables and
	// grounder after a clean warm open, and the incremental assembler. Only
	// an engine's first update pays it; it is zero on every later one.
	Materialized time.Duration
}

// rebind translates a delta's predicates onto this engine's program by name,
// so deltas built against another instance of the same program (another
// backend, a client-side copy) apply directly.
func (e *Engine) rebind(delta mln.Delta) (mln.Delta, error) {
	out := mln.Delta{Ops: make([]mln.DeltaOp, len(delta.Ops))}
	for i, op := range delta.Ops {
		if op.Pred == nil {
			return out, fmt.Errorf("tuffy: delta op %d has no predicate", i)
		}
		pred, ok := e.prog.Predicate(op.Pred.Name)
		if !ok {
			return out, fmt.Errorf("tuffy: delta predicate %q not in program", op.Pred.Name)
		}
		if pred.Arity() != len(op.Args) {
			return out, fmt.Errorf("tuffy: delta op %d: %s expects %d args, got %d",
				i, pred.Name, pred.Arity(), len(op.Args))
		}
		out.Ops[i] = mln.DeltaOp{Pred: pred, Args: op.Args, Truth: op.Truth}
	}
	return out, nil
}

// UpdateEvidence applies an evidence delta to the live engine and publishes
// the re-grounded network as the next epoch. Only the clause grounding
// queries whose provenance intersects the delta's predicates are re-run;
// the partitioning and component list are repaired for the touched
// connected components and reused everywhere else. Queries already in
// flight finish bit-identically on the epoch they started on; queries
// admitted after UpdateEvidence returns see the new epoch. The published
// network is bit-identical to a full Ground of a fresh engine over the
// merged evidence.
//
// Worked example:
//
//	eng, _ := tuffy.Open(prog, ev, tuffy.EngineConfig{})
//	_ = eng.Ground(ctx)                    // epoch 0
//	var d mln.Delta
//	d.Upsert(smokes, []int32{anna}, mln.True)
//	d.Remove(friend, []int32{anna, bob})
//	ur, err := eng.UpdateEvidence(ctx, d)  // epoch 1 (or same epoch if no-op)
//	// ur.ClausesRerun of ur.ClausesTotal queries re-ran; to undo:
//	_, _ = eng.UpdateEvidence(ctx, ur.Inverse)
//
// Failure semantics: on any error — validation, cancellation, storage —
// the evidence and predicate tables are rolled back and the engine keeps
// serving the previous epoch, so the same delta can simply be retried. A
// canceled update returns an error matching ErrCanceled. Updates are
// serialized with each other and with Ground; queries are never blocked.
//
// Durability: with EngineConfig.DataDir set, the delta is appended to the
// write-ahead log and fsynced before the new epoch is published — once
// UpdateEvidence returns success, the update survives a crash and is
// replayed on the next Open. The durable commit happens before the
// re-ground, so an update that fails after it (e.g. canceled mid-re-ground)
// is rolled back in memory and scrubbed from the WAL by a checkpoint of the
// restored state; crash recovery therefore always lands on exactly the pre-
// or post-update epoch, never in between.
//
// UpdateEvidence requires the BottomUp grounder (the incremental path
// needs per-clause SQL provenance; the top-down baseline has none).
func (e *Engine) UpdateEvidence(ctx context.Context, delta mln.Delta) (*UpdateResult, error) {
	e.groundMu.Lock()
	defer e.groundMu.Unlock()
	return e.applyUpdate(ctx, delta, true)
}

// applyUpdate is UpdateEvidence with groundMu held. Recovery replay calls
// it with durable=false: the deltas being re-applied already sit in the
// WAL, so logging them again would double them.
func (e *Engine) applyUpdate(ctx context.Context, delta mln.Delta, durable bool) (*UpdateResult, error) {
	if e.broken != nil {
		return nil, fmt.Errorf("tuffy: engine is broken for updates: %w", e.broken)
	}
	old := e.cur.Load()
	if old == nil {
		return nil, fmt.Errorf("tuffy: UpdateEvidence before Ground")
	}
	start := time.Now()
	var materialized time.Duration
	if e.inc == nil && e.dur != nil && e.dur.pending != nil {
		// Fast-path warm start: the serving epoch was published straight
		// from the snapshot; the first update pays for the table and
		// grounder rebuild here. Failure installs nothing — the update
		// errors cleanly and a retry materializes again.
		if err := e.materializePending(); err != nil {
			return nil, err
		}
		materialized = time.Since(start)
	}
	if e.inc == nil {
		return nil, fmt.Errorf("tuffy: UpdateEvidence requires the BottomUp grounder")
	}
	d, err := e.rebind(delta)
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, search.Canceled(ctx)
	}

	e.updating.Store(true)
	defer e.updating.Store(false)

	undo, err := e.tables.ApplyDelta(d)
	if err != nil {
		return nil, err
	}
	logged := false
	if durable && e.dur != nil {
		// The durable commit point: once the delta frame is fsynced, a
		// crash anywhere later replays it on the next Open. A failed
		// append/sync rolls the tables back and, if the frame may have been
		// buffered, scrubs it with a checkpoint of the restored state.
		if cerr := e.dur.commitDelta(d); cerr != nil {
			if rbErr := undo.Rollback(); rbErr != nil {
				e.broken = fmt.Errorf("rolling back failed update: %v (update error: %w)", rbErr, cerr)
				return nil, e.broken
			}
			if scrubErr := e.scrubWAL(); scrubErr != nil {
				e.broken = fmt.Errorf("scrubbing WAL after failed commit: %v (update error: %w)", scrubErr, cerr)
				return nil, e.broken
			}
			return nil, fmt.Errorf("tuffy: evidence delta could not be made durable: %w", cerr)
		}
		logged = true
	}
	res, touchedNew, info, err := e.inc.Reground(ctx, d.Preds())
	if err != nil {
		if rbErr := undo.Rollback(); rbErr != nil {
			// The tables are now inconsistent with the last published epoch.
			// Queries on existing epochs stay correct (they never read the
			// predicate tables), but further updates must not build on this
			// state.
			e.broken = fmt.Errorf("rolling back failed update: %v (update error: %w)", rbErr, err)
			return nil, e.broken
		}
		if logged {
			// The rolled-back delta is committed in the WAL; a crash now
			// would resurrect it. Checkpointing the restored state truncates
			// the orphaned frame, re-aligning disk with memory.
			if scrubErr := e.scrubWAL(); scrubErr != nil {
				e.broken = fmt.Errorf("scrubbing WAL after failed update: %v (update error: %w)", scrubErr, err)
				return nil, e.broken
			}
		}
		if ctx.Err() != nil && errors.Is(err, context.Cause(ctx)) {
			return nil, search.Canceled(ctx)
		}
		return nil, err
	}

	ur := &UpdateResult{
		Epoch:        old.gen,
		ClausesRerun: info.ClausesRerun,
		ClausesTotal: info.ClausesTotal,
		RawsAdded:    info.RawsAdded,
		RawsRemoved:  info.RawsRemoved,
		TouchedAtoms: info.TouchedAtoms,
		Inverse:      undo.Inverse(),
		Materialized: materialized + info.AssemblerBuild,
	}
	if info.RawsAdded == 0 && info.RawsRemoved == 0 {
		// The delta did not change any clause's groundings (e.g. flipping
		// evidence no clause reads, or an insert immediately retracted within
		// the batch): the grounded network is bit-identical, so the current
		// epoch — and every cache keyed to it — stays live.
		ur.Identical = true
		ur.UpdateTime = time.Since(start)
		e.updatesApplied.Add(1)
		if logged {
			e.noteCommitted()
		}
		return ur, nil
	}

	oldToNew, newToOld := grounding.AtomMaps(old.res, res)
	patch := mrf.ComputePatchTouched(old.res.MRF, res.MRF, oldToNew, newToOld, touchedNew)
	ur.ClausesAdded = len(patch.Added)
	ur.ClausesRemoved = len(patch.RemovedOld)
	ur.ClausesReweighted = len(patch.Reweighted)

	ne := &epoch{gen: old.gen + 1, res: res, db: e.db}
	ne.refs.Store(1)
	// Repair (not recompute) whatever derived state the old epoch had
	// already paid for: untouched components keep their exact local MRFs
	// (shared pointers — which is also what keeps their memo fingerprints
	// cached), untouched parts keep their exact tilings.
	oldPart, oldComps := old.builtDerived()
	if oldComps != nil {
		ne.comps, ur.ComponentsReused = mrf.RepairComponents(oldComps, res.MRF, newToOld, touchedNew, true)
	}
	if oldPart != nil {
		ne.part, ur.PartsReused = partition.Repair(oldPart, res.MRF, newToOld, touchedNew, e.partitionBeta())
	}

	e.cur.Store(ne)
	ur.Epoch = ne.gen
	ur.UpdateTime = time.Since(start)
	e.updatesApplied.Add(1)
	old.release()
	if logged {
		e.noteCommitted()
	}
	return ur, nil
}
