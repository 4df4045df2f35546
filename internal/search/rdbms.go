package search

import (
	"context"
	"math"
	"math/rand"
	"time"

	"tuffy/internal/db"
	"tuffy/internal/db/storage"
	"tuffy/internal/db/tuple"
	"tuffy/internal/mrf"
)

// RDBMSWalkSAT is the in-database WalkSAT variant (the paper's Tuffy-mm
// setting, Appendix B.2) in its set-oriented form: atom truth values are
// cached as in-memory arrays while clause data stays on disk, but instead
// of rescanning the clause table every flip the search maintains an
// atom→clause inverted-index table and a violated-clause side table inside
// the engine (see sidetable.go). Scans per flip drop from O(|clauses|) to
// O(affected), and the flip sequence, best state and best cost are bit-
// identical to RDBMSWalkSATScan's. Like the engine's other secondary
// indexes, the point indexes backing the lookups live in RAM for the
// duration of the search (O(|clauses|) for the cid index, released when
// the search returns); the clause data, inverted-index chunks and side
// table rows stay disk-resident behind the buffer pool.
//
// A canceled context stops the flip loop promptly; the helper tables are
// dropped as on a normal return and the best-so-far result accompanies
// ErrCanceled.
func RDBMSWalkSAT(ctx context.Context, d *db.DB, clauseTable string, numAtoms int, opts Options) (*Result, error) {
	start := time.Now()
	w, err := NewSideWalkSAT(ctx, d, clauseTable, numAtoms, opts)
	if err != nil {
		return nil, err
	}
	res, err := w.Run(ctx)
	if res != nil {
		res.Elapsed = time.Since(start) // include the setup scans
	}
	return res, err
}

// RDBMSWalkSATScan is the naive in-RDBMS WalkSAT the paper lesions
// (Appendix B.2): every flip pays at least one full scan of the clause
// table through the buffer pool, and a greedy move a second pass scoring
// all candidate atoms. The flipping-rate collapse this causes is the
// paper's Table 3 / Figure 4 observation; injecting per-page latency on the
// engine's disk reproduces the wall-clock gap, and the flipbatch experiment
// measures it against the set-oriented RDBMSWalkSAT.
func RDBMSWalkSATScan(ctx context.Context, d *db.DB, clauseTable string, numAtoms int, opts Options) (*Result, error) {
	return rdbmsWalkSATScan(ctx, d, clauseTable, numAtoms, opts, nil)
}

// rdbmsWalkSATScan is RDBMSWalkSATScan with a test hook observing every
// flip (the equivalence tests compare flip sequences across variants).
func rdbmsWalkSATScan(ctx context.Context, d *db.DB, clauseTable string, numAtoms int, opts Options, onFlip func(flip int64, atom mrf.AtomID) error) (*Result, error) {
	opts = opts.withDefaults()
	rng := rand.New(newSource(opts.Seed))
	t, ok := d.Table(clauseTable)
	if !ok {
		return nil, errNoTable(clauseTable)
	}

	// Atom states cached in memory (paper: "atoms are cached as in-memory
	// arrays").
	state := make([]bool, numAtoms+1)
	for a := 1; a <= numAtoms; a++ {
		state[a] = rng.Intn(2) == 0
	}
	best := append([]bool(nil), state...)
	bestCost := math.Inf(1)

	res := &Result{HitFlips: -1, BestCost: bestCost}
	start := time.Now()

	scanPick := func() (picked mrf.Clause, have bool, cost float64, hard int, err error) {
		seen := 0
		err = t.ScanRows(func(_ storage.RecordID, row tuple.Row) error {
			c, cerr := mrf.RowClause(row)
			if cerr != nil {
				return cerr
			}
			if !c.ViolatedBy(state) {
				return nil
			}
			if c.IsHard() {
				hard++
				cost += opts.HardWeight
			} else {
				cost += math.Abs(c.Weight)
			}
			seen++
			// Reservoir sampling: uniform choice among violated clauses.
			if rng.Intn(seen) == 0 {
				picked = c
				have = true
			}
			return nil
		})
		return picked, have, cost, hard, err
	}

	for flip := int64(0); flip < opts.MaxFlips; flip++ {
		if ctx.Err() != nil {
			// Every flip here costs a full table scan, so poll each
			// iteration; the best-so-far state accompanies the error.
			res.Best = best
			res.BestCost = bestCost
			res.Elapsed = time.Since(start)
			return res, Canceled(ctx)
		}
		picked, have, cost, hard, err := scanPick()
		if err != nil {
			return nil, err
		}
		reported := cost
		if hard > 0 {
			reported = math.Inf(1)
		}
		if reported < bestCost {
			bestCost = reported
			copy(best, state)
			if opts.Tracker != nil {
				opts.Tracker.Record(bestCost)
			}
		}
		if !have {
			break // no violated clause: optimum reached
		}
		var atom mrf.AtomID
		if rng.Float64() <= opts.NoisyP {
			atom = mrf.Atom(picked.Lits[rng.Intn(len(picked.Lits))])
		} else {
			// Greedy move: score every candidate atom of the picked clause
			// in ONE scan of the clause table, accumulating each
			// candidate's cost delta per row — a clause only changes a
			// candidate's delta if it contains that atom, so one pass
			// replaces the per-candidate full scans (|lits|+1 scans -> 1),
			// the first step of set-oriented in-database search.
			deltas := make([]float64, len(picked.Lits))
			serr := t.ScanRows(func(_ storage.RecordID, row tuple.Row) error {
				c, cerr := mrf.RowClause(row)
				if cerr != nil {
					return cerr
				}
				var w float64
				if c.IsHard() {
					w = opts.HardWeight
				} else {
					w = math.Abs(c.Weight)
				}
				violNow := c.ViolatedBy(state)
				for k, cl := range picked.Lits {
					cand := mrf.Atom(cl)
					if !clauseHasAtom(c, cand) {
						continue
					}
					if violFlip := violatedIfFlipped(c, state, cand); violFlip != violNow {
						if violFlip {
							deltas[k] += w
						} else {
							deltas[k] -= w
						}
					}
				}
				return nil
			})
			if serr != nil {
				return nil, serr
			}
			bestDelta := math.Inf(1)
			atom = mrf.Atom(picked.Lits[0])
			for k, cl := range picked.Lits {
				if deltas[k] < bestDelta {
					bestDelta = deltas[k]
					atom = mrf.Atom(cl)
				}
			}
		}
		state[atom] = !state[atom]
		res.Flips++
		if onFlip != nil {
			if err := onFlip(flip, atom); err != nil {
				return nil, err
			}
		}
	}
	// Final cost check (one more full scan — the set-oriented variant's
	// maintained cost makes this redundant there).
	_, _, cost, hard, err := scanPick()
	if err != nil {
		return nil, err
	}
	reported := cost
	if hard > 0 {
		reported = math.Inf(1)
	}
	if reported < bestCost {
		bestCost = reported
		copy(best, state)
	}

	res.Best = best
	res.BestCost = bestCost
	res.Elapsed = time.Since(start)
	return res, nil
}

// clauseHasAtom reports whether the clause mentions the atom.
func clauseHasAtom(c mrf.Clause, a mrf.AtomID) bool {
	for _, l := range c.Lits {
		if mrf.Atom(l) == a {
			return true
		}
	}
	return false
}

// violatedIfFlipped evaluates the clause's violation status in the state
// with atom a toggled, without mutating the state.
func violatedIfFlipped(c mrf.Clause, state []bool, a mrf.AtomID) bool {
	sat := false
	for _, l := range c.Lits {
		v := state[mrf.Atom(l)]
		if mrf.Atom(l) == a {
			v = !v
		}
		if v == mrf.Pos(l) {
			sat = true
			break
		}
	}
	if c.Weight >= 0 {
		return !sat
	}
	return sat
}

type errNoTable string

func (e errNoTable) Error() string { return "search: no clause table " + string(e) }
