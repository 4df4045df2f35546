package search

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"tuffy/internal/db"
	"tuffy/internal/db/index"
	"tuffy/internal/db/storage"
	"tuffy/internal/db/tuple"
	"tuffy/internal/mrf"
)

// This file makes the in-database WalkSAT variant fully set-oriented
// (closing the Tuffy-mm gap the paper measures in Table 3 / Figure 4): at
// search start it materializes an atom→clause inverted-index table and a
// violated-clause side table inside the engine, then maintains both
// incrementally per flip. After flipping atom a only the clauses the index
// maps to a are re-evaluated, and their membership transitions are applied
// to the side table as batched UPDATE/DELETE/INSERT sets, so the flip loop
// performs zero full clause-table scans: clause picking is a reservoir
// sample over the (small) side table and greedy scoring touches only
// index-mapped rows. Every arithmetic operation happens in ascending-cid
// order — the clause table's scan order — so the search replays the
// full-scan variant's flip sequence, best state and best cost bit for bit.

// sideSeq uniquifies the helper-table names so concurrent searches over the
// same clause table (or repeated searches in one engine) never collide in
// the catalog.
var sideSeq atomic.Int64

// violEntry is one decoded side-table row.
type violEntry struct {
	cid  int64
	w    float64
	hard bool
}

// atomChunk caps the clause ids stored per inverted-index row so one row
// always fits a page; high-degree atoms span several rows.
const atomChunk = 512

// sideTables is the set-oriented in-database search state: the read-only
// clause table plus the two maintained helper tables and their hash
// indexes. The incremental aggregates mirror what the side table implies;
// the invariant test harness cross-checks them against from-scratch
// recomputation.
type sideTables struct {
	hardW     float64
	clauses   *db.Table
	clauseIdx *index.HashIndex // cid -> clause-table rid
	atomTab   *db.Table        // (aid, cids) chunks, read-only after build
	atomIdx   *index.HashIndex // aid -> atomTab chunk rids (in chunk order)
	viol      *db.Table        // (cid, weight, is_hard): violated clauses only
	violIdx   *index.HashIndex // cid -> side-table rid, maintained per flip

	// Incrementally-maintained aggregates of the side table, updated from
	// per-flip deltas alone. The cost the search reports is the exact
	// ascending-cid sum pickViolated takes over the side table (bit-equal
	// to the full-scan variant's, which float reassociation in an
	// accumulator could not guarantee); these accumulators are the
	// redundant bookkeeping the invariant test harness cross-checks the
	// side table against after every K flips.
	softCost float64 // Σ|w| over violated soft clauses
	hardViol int     // violated hard clauses

	// Amortized per-flip scratch buffers.
	entries  []violEntry
	delRIDs  []storage.RecordID
	insRows  []tuple.Row
	moveSeen map[int64]mrf.Clause // per-greedy-move decode cache

	// free lists the side-table slots tombstoned by delete-surplus flips;
	// insert-surplus flips revive them (LIFO, for page locality) before
	// appending, so the side-table heap stays bounded at the high-water
	// mark of |violated| over the whole search instead of growing with
	// churn.
	free []storage.RecordID
}

// intKey encodes a single BIGINT as a hash-index key, matching what
// Table.BuildHashIndex computes for column 0.
func intKey(v int64) string {
	return tuple.EncodeKey(tuple.Row{tuple.I64(v)}, []int{0})
}

// newSideTables builds the inverted-index table and the initial violated
// side table for the given start state. These setup passes are the only
// full scans of the clause table the search ever performs.
func newSideTables(d *db.DB, clauseTable string, numAtoms int, state []bool, hardW float64) (*sideTables, error) {
	t, ok := d.Table(clauseTable)
	if !ok {
		return nil, errNoTable(clauseTable)
	}
	s := &sideTables{hardW: hardW, clauses: t}

	// cid -> rid point-lookup index on the (read-only) clause table.
	cidx, err := t.BuildHashIndex(0)
	if err != nil {
		return nil, err
	}
	s.clauseIdx = cidx
	// Every failure from here on must undo whatever registered state the
	// setup created so far (the cid index above, helper tables below) — a
	// retried search must not accumulate orphans in the catalog.
	fail := func(err error) (*sideTables, error) {
		s.drop(d)
		return nil, err
	}

	// One scan builds the atom occurrence lists and the initial violated
	// set. The search's ordering guarantees assume rows are stored in
	// ascending-cid order (mrf.Store's layout), which also makes duplicate
	// atoms within one clause adjacent appends — verified as we go.
	occ := make([][]int64, numAtoms+1)
	var violRows []tuple.Row
	lastCid := int64(-1)
	err = t.ScanRows(func(_ storage.RecordID, row tuple.Row) error {
		c, cerr := mrf.RowClause(row)
		if cerr != nil {
			return cerr
		}
		cid := row[0].I
		if cid <= lastCid {
			return fmt.Errorf("search: clause table %s not in ascending cid order (%d after %d)", clauseTable, cid, lastCid)
		}
		lastCid = cid
		for _, l := range c.Lits {
			a := int(mrf.Atom(l))
			if a >= len(occ) {
				return fmt.Errorf("search: clause %d mentions atom %d beyond numAtoms %d", cid, a, numAtoms)
			}
			if list := occ[a]; len(list) > 0 && list[len(list)-1] == cid {
				continue // duplicate literal of one clause
			}
			occ[a] = append(occ[a], cid)
		}
		if c.ViolatedBy(state) {
			violRows = append(violRows, mrf.ViolRow(cid, c))
			if c.IsHard() {
				s.hardViol++
			} else {
				s.softCost += math.Abs(c.Weight)
			}
		}
		return nil
	})
	if err != nil {
		return fail(err)
	}

	seq := sideSeq.Add(1)
	s.atomTab, err = d.CreateTable(fmt.Sprintf("%s_aidx_%d", clauseTable, seq), mrf.AtomIndexSchema())
	if err != nil {
		return fail(err)
	}
	var atomRows []tuple.Row
	for a, cids := range occ {
		for len(cids) > 0 {
			n := min(len(cids), atomChunk)
			atomRows = append(atomRows, mrf.AtomIndexRow(int64(a), cids[:n]))
			cids = cids[n:]
		}
	}
	if err := s.atomTab.InsertMany(atomRows); err != nil {
		return fail(err)
	}
	if s.atomIdx, err = s.atomTab.BuildHashIndex(0); err != nil {
		return fail(err)
	}

	s.viol, err = d.CreateTable(fmt.Sprintf("%s_viol_%d", clauseTable, seq), mrf.ViolTableSchema())
	if err != nil {
		return fail(err)
	}
	if err := s.viol.InsertMany(violRows); err != nil {
		return fail(err)
	}
	if s.violIdx, err = s.viol.BuildHashIndex(0); err != nil {
		return fail(err)
	}
	return s, nil
}

// drop removes the helper tables from the catalog and deregisters the
// clause table's cid point index, releasing its O(|clauses|) in-memory
// footprint (a concurrent search on the same table keeps working off its
// own pointer and re-registers on its next build).
func (s *sideTables) drop(d *db.DB) {
	if s.atomTab != nil {
		_ = d.DropTable(s.atomTab.Name())
	}
	if s.viol != nil {
		_ = d.DropTable(s.viol.Name())
	}
	if s.clauseIdx != nil {
		s.clauses.DropHashIndex(0)
	}
}

// clause fetches one clause row by id through the point index — the page
// reads a flip actually pays, in place of full scans.
func (s *sideTables) clause(cid int64) (mrf.Clause, error) {
	rids := s.clauseIdx.Lookup(intKey(cid))
	if len(rids) != 1 {
		return mrf.Clause{}, fmt.Errorf("search: clause id %d has %d index entries", cid, len(rids))
	}
	row, err := s.clauses.Get(rids[0])
	if err != nil {
		return mrf.Clause{}, err
	}
	if row == nil {
		return mrf.Clause{}, fmt.Errorf("search: clause id %d deleted mid-search", cid)
	}
	return mrf.RowClause(row)
}

// atomClauses returns the ids of every clause mentioning the atom, in
// ascending order, by reading the atom's inverted-index chunk rows.
func (s *sideTables) atomClauses(a mrf.AtomID) ([]int64, error) {
	rids := s.atomIdx.Lookup(intKey(int64(a)))
	if len(rids) == 0 {
		return nil, nil
	}
	var cids []int64
	for _, rid := range rids {
		row, err := s.atomTab.Get(rid)
		if err != nil {
			return nil, err
		}
		if row == nil {
			return nil, fmt.Errorf("search: atom-index row for atom %d deleted", a)
		}
		_, chunk, err := mrf.RowAtomIndex(row)
		if err != nil {
			return nil, err
		}
		cids = append(cids, chunk...)
	}
	return cids, nil
}

// pickViolated mirrors the full-scan variant's scanPick restricted to the
// side table: one pass over the (small) violated set in ascending-cid
// order, accumulating the identical cost sum and consuming the identical
// reservoir-sampling RNG draws, then a single point read for the picked
// clause. The clause table itself is never scanned.
func (s *sideTables) pickViolated(rng *rand.Rand) (picked mrf.Clause, have bool, cost float64, hard int, err error) {
	entries := s.entries[:0]
	err = s.viol.ScanRows(func(_ storage.RecordID, row tuple.Row) error {
		cid, w, isHard, rerr := mrf.RowViol(row)
		if rerr != nil {
			return rerr
		}
		entries = append(entries, violEntry{cid: cid, w: w, hard: isHard})
		return nil
	})
	s.entries = entries
	if err != nil {
		return picked, false, 0, 0, err
	}
	// Slot reuse and tombstoning perturb heap order; cid order restores the
	// clause table's scan order, which the cost sum and RNG stream replay.
	sort.Slice(entries, func(i, j int) bool { return entries[i].cid < entries[j].cid })
	seen := 0
	pickedCid := int64(-1)
	for _, e := range entries {
		if e.hard {
			hard++
			cost += s.hardW
		} else {
			cost += math.Abs(e.w)
		}
		seen++
		if rng.Intn(seen) == 0 {
			pickedCid = e.cid
			have = true
		}
	}
	if have {
		picked, err = s.clause(pickedCid)
	}
	return picked, have, cost, hard, err
}

// greedyAtom mirrors the full-scan variant's one-scan greedy scoring with
// index-mapped rows only: each candidate's cost delta accumulates over
// exactly the clauses containing that atom, in ascending-cid order — the
// same additions in the same order as the full scan produces, so the chosen
// atom is bit-identical at O(occurrences) page reads.
func (s *sideTables) greedyAtom(picked mrf.Clause, state []bool) (mrf.AtomID, error) {
	// Candidates of one clause share many clauses (the picked clause at
	// minimum); cache decodes for the duration of this move so a shared
	// clause is fetched once, not once per candidate. State is frozen
	// within a move, so the cache cannot go stale.
	if s.moveSeen == nil {
		s.moveSeen = make(map[int64]mrf.Clause)
	} else {
		clear(s.moveSeen)
	}
	bestDelta := math.Inf(1)
	atom := mrf.Atom(picked.Lits[0])
	for _, cl := range picked.Lits {
		cand := mrf.Atom(cl)
		cids, err := s.atomClauses(cand)
		if err != nil {
			return 0, err
		}
		delta := 0.0
		for _, cid := range cids {
			c, ok := s.moveSeen[cid]
			if !ok {
				var err error
				if c, err = s.clause(cid); err != nil {
					return 0, err
				}
				s.moveSeen[cid] = c
			}
			var w float64
			if c.IsHard() {
				w = s.hardW
			} else {
				w = math.Abs(c.Weight)
			}
			violNow := c.ViolatedBy(state)
			if violFlip := violatedIfFlipped(c, state, cand); violFlip != violNow {
				if violFlip {
					delta += w
				} else {
					delta -= w
				}
			}
		}
		if delta < bestDelta {
			bestDelta = delta
			atom = cand
		}
	}
	return atom, nil
}

// applyFlip re-evaluates exactly the clauses containing the flipped atom
// (state must already reflect the flip) and applies their membership
// transitions to the side table set-oriented: paired leave/enter
// transitions reuse slots in place through one batched UpdateMany — the
// side table never grows tombstones under churn — and the remainder goes
// through one DeleteMany / InsertMany each. The running aggregates update
// from these deltas alone.
func (s *sideTables) applyFlip(a mrf.AtomID, state []bool) error {
	cids, err := s.atomClauses(a)
	if err != nil {
		return err
	}
	dels := s.delRIDs[:0]
	ins := s.insRows[:0]
	for _, cid := range cids {
		c, err := s.clause(cid)
		if err != nil {
			return err
		}
		sideRIDs := s.violIdx.Lookup(intKey(cid))
		was := len(sideRIDs) > 0
		now := c.ViolatedBy(state)
		if now == was {
			continue
		}
		if now {
			ins = append(ins, mrf.ViolRow(cid, c))
			if c.IsHard() {
				s.hardViol++
			} else {
				s.softCost += math.Abs(c.Weight)
			}
		} else {
			dels = append(dels, sideRIDs[0])
			if c.IsHard() {
				s.hardViol--
			} else {
				s.softCost -= math.Abs(c.Weight)
			}
		}
	}
	s.delRIDs, s.insRows = dels, ins
	n := min(len(dels), len(ins))
	if n > 0 {
		if err := s.viol.UpdateMany(dels[:n], ins[:n]); err != nil {
			return err
		}
	}
	// Delete surplus: tombstone the rows but remember their slots on the
	// free list for a later insert-surplus flip to revive.
	if err := s.viol.DeleteMany(dels[n:]); err != nil {
		return err
	}
	s.free = append(s.free, dels[n:]...)
	// Insert surplus: revive freed slots first (LIFO), append only what
	// the free list cannot absorb — which can only happen when |violated|
	// reaches a new high-water mark.
	ins = ins[n:]
	if k := min(len(s.free), len(ins)); k > 0 {
		reuse := s.free[len(s.free)-k:]
		if err := s.viol.ReviveMany(reuse, ins[:k]); err != nil {
			return err
		}
		s.free = s.free[:len(s.free)-k]
		ins = ins[k:]
	}
	return s.viol.InsertMany(ins)
}

// SideWalkSAT is the staged form of the set-oriented RDBMSWalkSAT:
// NewSideWalkSAT pays the setup scans (point index, inverted-index table,
// initial side table), Run executes the flip loop with zero full
// clause-table scans. The stages are separate so benchmarks and tests can
// meter the flip loop's I/O on its own.
type SideWalkSAT struct {
	d     *db.DB
	opts  Options
	rng   *rand.Rand
	state []bool
	side  *sideTables
	ran   bool
}

// NewSideWalkSAT draws the initial atom state (same RNG stream as the
// full-scan variant) and builds the set-oriented search state for it. A
// context canceled before the setup scans complete aborts the build with
// Canceled(ctx) and leaves no helper tables behind.
func NewSideWalkSAT(ctx context.Context, d *db.DB, clauseTable string, numAtoms int, opts Options) (*SideWalkSAT, error) {
	if ctx.Err() != nil {
		return nil, Canceled(ctx)
	}
	opts = opts.withDefaults()
	rng := rand.New(newSource(opts.Seed))
	state := make([]bool, numAtoms+1)
	for a := 1; a <= numAtoms; a++ {
		state[a] = rng.Intn(2) == 0
	}
	side, err := newSideTables(d, clauseTable, numAtoms, state, opts.HardWeight)
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		side.drop(d)
		return nil, Canceled(ctx)
	}
	return &SideWalkSAT{d: d, opts: opts, rng: rng, state: state, side: side}, nil
}

// Run executes the flip loop. It may be called once; the helper tables are
// dropped from the catalog when it returns — including when the context
// cancels the loop, in which case the best-so-far result accompanies
// ErrCanceled.
func (w *SideWalkSAT) Run(ctx context.Context) (*Result, error) { return w.run(ctx, nil) }

// run is Run with a test hook observing every flip after the side table has
// absorbed it.
func (w *SideWalkSAT) run(ctx context.Context, onFlip func(flip int64, atom mrf.AtomID) error) (*Result, error) {
	if w.ran {
		return nil, fmt.Errorf("search: SideWalkSAT.Run called twice")
	}
	w.ran = true
	defer w.side.drop(w.d)

	opts, rng, state := w.opts, w.rng, w.state
	best := append([]bool(nil), state...)
	bestCost := math.Inf(1)
	res := &Result{HitFlips: -1, BestCost: bestCost}
	start := time.Now()

	for flip := int64(0); ; flip++ {
		if ctx.Err() != nil {
			// Each flip pays page I/O, so poll every iteration.
			res.Best = best
			res.BestCost = bestCost
			res.Elapsed = time.Since(start)
			return res, Canceled(ctx)
		}
		picked, have, cost, hard, err := w.side.pickViolated(rng)
		if err != nil {
			return nil, err
		}
		reported := cost
		if hard > 0 {
			reported = math.Inf(1)
		}
		// The incrementally-maintained cost is exact, so the last flip's
		// improvement is caught right here on the final iteration — no
		// closing full-table scanPick, and the Tracker sees it like any
		// in-loop improvement.
		if reported < bestCost {
			bestCost = reported
			copy(best, state)
			if opts.Tracker != nil {
				opts.Tracker.Record(bestCost)
			}
		}
		if !have || flip >= opts.MaxFlips {
			break
		}
		var atom mrf.AtomID
		if rng.Float64() <= opts.NoisyP {
			atom = mrf.Atom(picked.Lits[rng.Intn(len(picked.Lits))])
		} else {
			if atom, err = w.side.greedyAtom(picked, state); err != nil {
				return nil, err
			}
		}
		state[atom] = !state[atom]
		if err := w.side.applyFlip(atom, state); err != nil {
			return nil, err
		}
		res.Flips++
		if onFlip != nil {
			if err := onFlip(flip, atom); err != nil {
				return nil, err
			}
		}
	}
	res.Best = best
	res.BestCost = bestCost
	res.Elapsed = time.Since(start)
	return res, nil
}
