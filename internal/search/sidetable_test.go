package search

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"tuffy/internal/datagen"
	"tuffy/internal/db"
	"tuffy/internal/db/storage"
	"tuffy/internal/db/tuple"
	"tuffy/internal/mrf"
)

// --- workload builders -------------------------------------------------

// softMRF is Example1 plus a few wider soft clauses: all-soft weights.
func softMRF() *mrf.MRF {
	m := datagen.Example1(12)
	for a := 1; a+3 <= m.NumAtoms; a += 3 {
		_ = m.AddClause(1.5, mrf.Lit(a), -mrf.Lit(a+1), mrf.Lit(a+2))
	}
	return m
}

// hardMRF mixes hard constraints with soft clauses.
func hardMRF() *mrf.MRF {
	m := mrf.New(10)
	for a := 1; a <= 10; a++ {
		_ = m.AddClause(1, mrf.Lit(a))
	}
	for a := 1; a < 10; a += 2 {
		_ = m.AddClause(math.Inf(1), -mrf.Lit(a), mrf.Lit(a+1))
	}
	_ = m.AddClause(2, -1, -4)
	_ = m.AddClause(3, 3, -6, 9)
	return m
}

// negMRF includes negative-weight clauses (violated when satisfied) and
// non-dyadic weights whose float sums are order-sensitive — this is what
// pins the side-table variant to the full scan's exact summation order.
func negMRF() *mrf.MRF {
	m := mrf.New(9)
	for a := 1; a <= 9; a++ {
		_ = m.AddClause(0.1*float64(a), mrf.Lit(a))
	}
	_ = m.AddClause(-0.7, 1, 2)
	_ = m.AddClause(-1.3, -3, 4, -5)
	_ = m.AddClause(0.3, 6, -7)
	_ = m.AddClause(-0.2, 8, 9)
	return m
}

func storeMRF(t *testing.T, m *mrf.MRF, cfg db.Config) *db.DB {
	t.Helper()
	d := db.Open(cfg)
	if err := mrf.Store(m, d, "clauses"); err != nil {
		t.Fatal(err)
	}
	return d
}

// --- bit-identical equivalence -----------------------------------------

// The side-table RDBMSWalkSAT must reproduce the full-scan variant's flip
// sequence, best state and best cost exactly, across seeds, noise levels
// and hard/soft/negative-weight workloads.
func TestSideWalkSATBitIdenticalToScan(t *testing.T) {
	workloads := []struct {
		name string
		mk   func() *mrf.MRF
	}{
		{"soft", softMRF},
		{"hard", hardMRF},
		{"neg", negMRF},
	}
	for _, wl := range workloads {
		for _, seed := range []int64{1, 7, 1234} {
			for _, noisy := range []float64{0.1, 0.5, 0.9} {
				name := fmt.Sprintf("%s/seed=%d/p=%v", wl.name, seed, noisy)
				t.Run(name, func(t *testing.T) {
					m := wl.mk()
					opts := Options{MaxFlips: 300, Seed: seed, NoisyP: noisy}

					var scanFlips []mrf.AtomID
					dScan := storeMRF(t, m, db.Config{})
					rScan, err := rdbmsWalkSATScan(context.Background(), dScan, "clauses", m.NumAtoms, opts,
						func(_ int64, a mrf.AtomID) error { scanFlips = append(scanFlips, a); return nil })
					if err != nil {
						t.Fatal(err)
					}

					var sideFlips []mrf.AtomID
					dSide := storeMRF(t, m, db.Config{})
					w, err := NewSideWalkSAT(context.Background(), dSide, "clauses", m.NumAtoms, opts)
					if err != nil {
						t.Fatal(err)
					}
					rSide, err := w.run(context.Background(), func(_ int64, a mrf.AtomID) error { sideFlips = append(sideFlips, a); return nil })
					if err != nil {
						t.Fatal(err)
					}

					if rSide.Flips != rScan.Flips {
						t.Fatalf("flips %d != %d", rSide.Flips, rScan.Flips)
					}
					if len(sideFlips) != len(scanFlips) {
						t.Fatalf("flip log %d != %d", len(sideFlips), len(scanFlips))
					}
					for i := range scanFlips {
						if sideFlips[i] != scanFlips[i] {
							t.Fatalf("flip %d: atom %d != %d", i, sideFlips[i], scanFlips[i])
						}
					}
					if rSide.BestCost != rScan.BestCost {
						t.Fatalf("best cost %v != %v", rSide.BestCost, rScan.BestCost)
					}
					if len(rSide.Best) != len(rScan.Best) {
						t.Fatalf("best len %d != %d", len(rSide.Best), len(rScan.Best))
					}
					for i := range rScan.Best {
						if rSide.Best[i] != rScan.Best[i] {
							t.Fatalf("best state differs at atom %d", i)
						}
					}
				})
			}
		}
	}
}

// The public entry point must behave exactly like the staged API.
func TestRDBMSWalkSATWrapperMatchesStaged(t *testing.T) {
	m := softMRF()
	opts := Options{MaxFlips: 120, Seed: 5}
	r1, err := RDBMSWalkSAT(context.Background(), storeMRF(t, m, db.Config{}), "clauses", m.NumAtoms, opts)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewSideWalkSAT(context.Background(), storeMRF(t, m, db.Config{}), "clauses", m.NumAtoms, opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := w.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r1.BestCost != r2.BestCost || r1.Flips != r2.Flips {
		t.Fatalf("wrapper diverges: %v/%d vs %v/%d", r1.BestCost, r1.Flips, r2.BestCost, r2.Flips)
	}
	if _, err := w.Run(context.Background()); err == nil {
		t.Fatal("second Run accepted")
	}
}

// --- invariant / consistency harness -----------------------------------

// recomputeViolated scans the clause table from scratch and returns the
// violated set keyed by cid, plus the exact ascending-cid cost sum the
// search's pick pass should report.
func recomputeViolated(t *testing.T, tab *db.Table, state []bool, hardW float64) (map[int64]mrf.Clause, float64, int) {
	t.Helper()
	viol := make(map[int64]mrf.Clause)
	cost := 0.0
	hard := 0
	err := tab.ScanRows(func(_ storage.RecordID, row tuple.Row) error {
		c, err := mrf.RowClause(row)
		if err != nil {
			return err
		}
		if !c.ViolatedBy(state) {
			return nil
		}
		viol[row[0].I] = c
		if c.IsHard() {
			hard++
			cost += hardW
		} else {
			cost += math.Abs(c.Weight)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return viol, cost, hard
}

// sideSnapshot reads the current side table into a cid-keyed map.
func sideSnapshot(t *testing.T, s *sideTables) map[int64]violEntry {
	t.Helper()
	got := make(map[int64]violEntry)
	err := s.viol.ScanRows(func(_ storage.RecordID, row tuple.Row) error {
		cid, w, hard, err := mrf.RowViol(row)
		if err != nil {
			return err
		}
		if _, dup := got[cid]; dup {
			return fmt.Errorf("duplicate side-table row for clause %d", cid)
		}
		got[cid] = violEntry{cid: cid, w: w, hard: hard}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// checkSideConsistency compares the maintained side table and running
// aggregates against a from-scratch recomputation. The ascending-cid cost
// sum must match exactly (bit for bit); the incremental soft-cost
// accumulator may differ from the ordered sum only by float reassociation.
func checkSideConsistency(t *testing.T, s *sideTables, state []bool) {
	t.Helper()
	want, wantCost, wantHard := recomputeViolated(t, s.clauses, state, s.hardW)
	got := sideSnapshot(t, s)
	if len(got) != len(want) {
		t.Fatalf("side table has %d rows, want %d", len(got), len(want))
	}
	for cid, c := range want {
		e, ok := got[cid]
		if !ok {
			t.Fatalf("violated clause %d missing from side table", cid)
		}
		if e.hard != c.IsHard() || (!e.hard && e.w != c.Weight) {
			t.Fatalf("side row for clause %d is (%v,%v), clause is (%v,%v)", cid, e.w, e.hard, c.Weight, c.IsHard())
		}
	}
	// The cost the search actually uses: ascending-cid sum over the side
	// table, exactly as pickViolated computes it.
	cids := make([]int64, 0, len(got))
	for cid := range got {
		cids = append(cids, cid)
	}
	sort.Slice(cids, func(i, j int) bool { return cids[i] < cids[j] })
	cost := 0.0
	hard := 0
	for _, cid := range cids {
		if e := got[cid]; e.hard {
			hard++
			cost += s.hardW
		} else {
			cost += math.Abs(e.w)
		}
	}
	if cost != wantCost {
		t.Fatalf("side-table cost %v != recomputed %v (must match exactly)", cost, wantCost)
	}
	if hard != wantHard || s.hardViol != wantHard {
		t.Fatalf("hard violations side=%d incr=%d want %d", hard, s.hardViol, wantHard)
	}
	// Incremental accumulator: same value up to reassociation rounding.
	incrWant := 0.0
	for _, cid := range cids {
		if e := got[cid]; !e.hard {
			incrWant += math.Abs(e.w)
		}
	}
	if math.Abs(s.softCost-incrWant) > 1e-9*(1+math.Abs(incrWant)) {
		t.Fatalf("incremental soft cost %v drifted from %v", s.softCost, incrWant)
	}
}

// After every flip the side table and running cost must equal a
// from-scratch recomputation — including on negative-weight clauses, whose
// violatedIfFlipped semantics (w<0: violated when satisfied) the RDBMS
// path exercises here.
func TestSideTableInvariantEveryKFlips(t *testing.T) {
	workloads := []struct {
		name string
		mk   func() *mrf.MRF
	}{
		{"soft", softMRF},
		{"hard", hardMRF},
		{"neg", negMRF},
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			m := wl.mk()
			d := storeMRF(t, m, db.Config{})
			w, err := NewSideWalkSAT(context.Background(), d, "clauses", m.NumAtoms, Options{MaxFlips: 250, Seed: 99, NoisyP: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			checkSideConsistency(t, w.side, w.state) // initial build
			checks := 0
			_, err = w.run(context.Background(), func(flip int64, _ mrf.AtomID) error {
				// The hook fires after the side table absorbed the flip, so
				// checking every flip covers the final maintained state too;
				// once run returns the helper tables are dropped and their
				// pages reclaimed, so no post-run check is possible. (The
				// tables are tiny — the per-flip recompute is cheap.)
				checkSideConsistency(t, w.side, w.state)
				checks++
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if checks == 0 {
				t.Fatal("harness never ran")
			}
		})
	}
}

// --- free-slot list / heap bound ----------------------------------------

// Long-run churn must not grow the side-table heap: delete-surplus flips
// put their tombstoned slots on a free list and insert-surplus flips
// revive them before appending, so after every flip live rows + free slots
// equals the running high-water mark of |violated|, and the heap's page
// count only moves when that high-water mark itself rises. Without the
// free list a search this long accumulates a tombstone per delete-surplus
// flip and the pick scan slows with it.
func TestSideTableHeapBoundedAtHighWaterMark(t *testing.T) {
	// A churny workload: per-atom soft contradictions keep the violated
	// set large and oscillating, and high noise keeps the walk moving.
	m := mrf.New(60)
	for a := 1; a <= 60; a++ {
		if err := m.AddClause(1, mrf.Lit(a)); err != nil {
			t.Fatal(err)
		}
		if err := m.AddClause(1, -mrf.Lit(a)); err != nil {
			t.Fatal(err)
		}
	}
	for a := 1; a+1 <= 60; a++ {
		if err := m.AddClause(0.5, mrf.Lit(a), -mrf.Lit(a+1)); err != nil {
			t.Fatal(err)
		}
	}
	d := storeMRF(t, m, db.Config{})
	w, err := NewSideWalkSAT(context.Background(), d, "clauses", m.NumAtoms,
		Options{MaxFlips: 4000, Seed: 21, NoisyP: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	heap := w.side.viol.Heap()
	hw := heap.NumRecords()
	pagesAtHW := heap.NumPages()
	if hw == 0 {
		t.Fatal("no violated clauses at start")
	}
	surplusFlips := 0
	res, err := w.run(context.Background(), func(flip int64, _ mrf.AtomID) error {
		live := heap.NumRecords()
		if live > hw {
			hw = live
			pagesAtHW = heap.NumPages()
		}
		if total := live + int64(len(w.side.free)); total != hw {
			return fmt.Errorf("flip %d: live %d + free %d = %d != high-water %d (slots leaked or lost)",
				flip, live, len(w.side.free), total, hw)
		}
		if got := heap.NumPages(); got != pagesAtHW {
			return fmt.Errorf("flip %d: heap grew to %d pages with no new |violated| high-water mark (%d pages at hw %d)",
				flip, got, pagesAtHW, hw)
		}
		if len(w.side.free) > 0 {
			surplusFlips++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Flips < 1000 {
		t.Fatalf("workload settled after %d flips; churn harness needs a longer run", res.Flips)
	}
	if surplusFlips == 0 {
		t.Fatal("free list never used: the workload produced no delete-surplus flips")
	}
}

// --- zero full scans / page reads --------------------------------------

// The flip loop must never rescan the clause table: its heap-scan counter
// stays frozen across the whole loop, and the physical page reads stay far
// below what even a single per-flip scan regime would cost.
func TestSideWalkSATFlipLoopNeverScansClauseTable(t *testing.T) {
	// 26 pages of clauses against a 16-frame pool: the pool holds the hot
	// set (side table + touched index chunks) but can never cache the
	// clause table, so any full scan would show up as ~26 misses.
	m := datagen.Example1(2000)
	d := storeMRF(t, m, db.Config{BufferPoolPages: 16})
	tab, _ := d.Table("clauses")
	tablePages := int64(tab.Heap().NumPages())
	if tablePages < 20 {
		t.Fatalf("workload too small: %d pages", tablePages)
	}

	w, err := NewSideWalkSAT(context.Background(), d, "clauses", m.NumAtoms, Options{MaxFlips: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	scansBefore := tab.Heap().NumScans()
	readsBefore := d.Disk().Stats().Reads
	res, err := w.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Flips == 0 {
		t.Fatal("no flips performed")
	}
	if got := tab.Heap().NumScans(); got != scansBefore {
		t.Fatalf("flip loop scanned the clause table %d times", got-scansBefore)
	}
	loopReads := d.Disk().Stats().Reads - readsBefore
	// One scan-based flip costs ~tablePages reads through this tiny pool;
	// the set-oriented loop must be far under one scan per flip.
	budget := res.Flips * tablePages / 4
	if loopReads >= budget {
		t.Fatalf("flip loop read %d pages over %d flips (budget %d, table %d pages)",
			loopReads, res.Flips, budget, tablePages)
	}
}

// And head-to-head: on the same workload, same flips, the side-table flip
// loop must do a small fraction of the scan variant's physical reads while
// producing the identical result.
func TestSideWalkSATReadsFractionOfScan(t *testing.T) {
	m := datagen.Example1(2000)
	opts := Options{MaxFlips: 25, Seed: 11}

	dScan := storeMRF(t, m, db.Config{BufferPoolPages: 16})
	readsBefore := dScan.Disk().Stats().Reads
	rScan, err := RDBMSWalkSATScan(context.Background(), dScan, "clauses", m.NumAtoms, opts)
	if err != nil {
		t.Fatal(err)
	}
	scanReads := dScan.Disk().Stats().Reads - readsBefore

	dSide := storeMRF(t, m, db.Config{BufferPoolPages: 16})
	w, err := NewSideWalkSAT(context.Background(), dSide, "clauses", m.NumAtoms, opts)
	if err != nil {
		t.Fatal(err)
	}
	readsBefore = dSide.Disk().Stats().Reads
	rSide, err := w.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sideReads := dSide.Disk().Stats().Reads - readsBefore

	if rSide.BestCost != rScan.BestCost || rSide.Flips != rScan.Flips {
		t.Fatalf("variants diverge: %v/%d vs %v/%d", rSide.BestCost, rSide.Flips, rScan.BestCost, rScan.Flips)
	}
	if sideReads*5 > scanReads {
		t.Fatalf("side flip loop read %d pages vs scan %d — expected at most 1/5", sideReads, scanReads)
	}
}

// --- fault injection ----------------------------------------------------

// Side-table maintenance must surface disk errors instead of silently
// diverging: a read fault mid-loop aborts the search with the injected
// error.
func TestSideWalkSATSurfacesReadFaults(t *testing.T) {
	fd := storage.NewFaultDisk(storage.NewMemDisk())
	m := datagen.Example1(1500)
	d := storeMRF(t, m, db.Config{Disk: fd, BufferPoolPages: 4})
	w, err := NewSideWalkSAT(context.Background(), d, "clauses", m.NumAtoms, Options{MaxFlips: 50, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	fd.FailReadsAfter(3) // loop's point lookups miss the tiny pool and then fail
	if _, err := w.Run(context.Background()); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("err = %v, want injected fault", err)
	}
}

// A write-back fault on a dirty side-table page must surface too.
func TestSideWalkSATSurfacesWriteFaults(t *testing.T) {
	fd := storage.NewFaultDisk(storage.NewMemDisk())
	m := datagen.Example1(1500)
	d := storeMRF(t, m, db.Config{Disk: fd, BufferPoolPages: 4})
	w, err := NewSideWalkSAT(context.Background(), d, "clauses", m.NumAtoms, Options{MaxFlips: 50, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	// The loop dirties side-table pages; with a 4-frame pool the clause
	// point reads evict them, forcing latency-free write-backs that now
	// fail.
	fd.FailWritesAfter(0)
	if _, err := w.Run(context.Background()); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("err = %v, want injected fault", err)
	}
}

// --- concurrency --------------------------------------------------------

// Concurrent set-oriented searches over separate clause tables in one
// engine (the hybrid path's oversized components) must be race-free and
// per-table deterministic. Run under -race in CI.
func TestSideWalkSATConcurrentSearches(t *testing.T) {
	const n = 4
	d := db.Open(db.Config{BufferPoolPages: 32})
	mrfs := make([]*mrf.MRF, n)
	want := make([]float64, n)
	for i := 0; i < n; i++ {
		mrfs[i] = datagen.Example1(40 + 10*i)
		name := fmt.Sprintf("clauses_%d", i)
		if err := mrf.Store(mrfs[i], d, name); err != nil {
			t.Fatal(err)
		}
		r, err := RDBMSWalkSAT(context.Background(), d, name, mrfs[i].NumAtoms, Options{MaxFlips: 150, Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r.BestCost
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	got := make([]float64, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("clauses_%d", i)
			r, err := RDBMSWalkSAT(context.Background(), d, name, mrfs[i].NumAtoms, Options{MaxFlips: 150, Seed: int64(i)})
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = r.BestCost
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("search %d: %v", i, errs[i])
		}
		if got[i] != want[i] {
			t.Fatalf("search %d: concurrent cost %v != sequential %v", i, got[i], want[i])
		}
	}
}

// --- lifecycle ----------------------------------------------------------

// A finished search must leave no helper tables in the catalog and must
// deregister the clause table's point index; a setup that fails partway
// must clean up whatever it had created.
func TestSideWalkSATCleansUpHelperState(t *testing.T) {
	m := softMRF()
	d := storeMRF(t, m, db.Config{})
	if _, err := RDBMSWalkSAT(context.Background(), d, "clauses", m.NumAtoms, Options{MaxFlips: 50, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	for _, name := range d.TableNames() {
		if name != "clauses" {
			t.Fatalf("helper table %q left in catalog", name)
		}
	}
	tab, _ := d.Table("clauses")
	if _, ok := tab.HashIndexOn([]int{0}); ok {
		t.Fatal("cid point index left registered after search")
	}
}

func TestSideWalkSATSetupFailureLeavesNoOrphans(t *testing.T) {
	fd := storage.NewFaultDisk(storage.NewMemDisk())
	m := datagen.Example1(1500)
	d := storeMRF(t, m, db.Config{Disk: fd, BufferPoolPages: 4})
	if err := d.Pool().FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Setup needs a couple of full scans plus helper-table writes; let a
	// few reads through so failure lands mid-setup, after table creation.
	tab, _ := d.Table("clauses")
	checkClean := func(when string) {
		t.Helper()
		for _, name := range d.TableNames() {
			if name != "clauses" {
				t.Fatalf("%s: orphaned helper table %q after failed setup", when, name)
			}
		}
		if _, ok := tab.HashIndexOn([]int{0}); ok {
			t.Fatalf("%s: cid point index left registered after failed setup", when)
		}
	}
	for _, budget := range []int{1, 5, 20, 60} {
		fd.FailReadsAfter(budget)
		w, err := NewSideWalkSAT(context.Background(), d, "clauses", m.NumAtoms, Options{MaxFlips: 5, Seed: 4})
		fd.FailReadsAfter(-1)
		if err == nil {
			// Setup got through on this budget; earlier ones failed. Run
			// the search so it releases its (legitimate) helper tables
			// before the orphan checks below.
			if _, err := w.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			break
		}
		checkClean(fmt.Sprintf("read budget %d", budget))
	}
	// An early validation failure (atom id beyond numAtoms, caught while
	// building the occurrence lists) must clean up the already-registered
	// cid index too.
	if _, err := NewSideWalkSAT(context.Background(), d, "clauses", m.NumAtoms/2, Options{MaxFlips: 5, Seed: 4}); err == nil {
		t.Fatal("undersized numAtoms accepted")
	}
	checkClean("undersized numAtoms")
}
