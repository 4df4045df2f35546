package bench

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"tuffy/internal/datagen"
	"tuffy/internal/db"
	"tuffy/internal/db/plan"
	"tuffy/internal/db/storage"
	"tuffy/internal/db/tuple"
	"tuffy/internal/grounding"
	"tuffy/internal/mrf"
	"tuffy/internal/partition"
	"tuffy/internal/search"
)

// Table1 reproduces the dataset-statistics table.
func Table1(ctx context.Context, s Scale) (*Table, error) {
	t := &Table{
		Title:  "Table 1: Dataset statistics",
		Header: []string{"", "LP", "IE", "RC", "ER"},
	}
	dss := s.Datasets()
	rows := map[string][]string{
		"#relations": {}, "#rules": {}, "#entities": {}, "#evidence tuples": {},
		"#query atoms": {}, "#components": {},
	}
	order := []string{"#relations", "#rules", "#entities", "#evidence tuples", "#query atoms", "#components"}
	for _, ds := range dss {
		st := ds.Table1Stats()
		g, err := groundWith(ctx, ds, "bottomup", db.Config{}, grounding.Options{})
		if err != nil {
			return nil, err
		}
		comps := g.res.MRF.Components(false)
		rows["#relations"] = append(rows["#relations"], fmt.Sprint(st.Relations))
		rows["#rules"] = append(rows["#rules"], fmt.Sprint(st.Rules))
		rows["#entities"] = append(rows["#entities"], fmt.Sprint(st.Entities))
		rows["#evidence tuples"] = append(rows["#evidence tuples"], fmt.Sprint(st.EvidenceTuples))
		rows["#query atoms"] = append(rows["#query atoms"], fmt.Sprint(g.res.Stats.NumUsedAtoms))
		rows["#components"] = append(rows["#components"], fmt.Sprint(len(comps)))
	}
	for _, name := range order {
		t.Rows = append(t.Rows, append([]string{name}, rows[name]...))
	}
	return t, nil
}

// Table2 reproduces the grounding-time comparison: Alchemy's top-down
// strategy vs Tuffy's bottom-up RDBMS grounding (paper: Tuffy wins by up to
// 225x on ER).
func Table2(ctx context.Context, s Scale) (*Table, error) {
	t := &Table{
		Title:  "Table 2: Grounding time",
		Header: []string{"", "LP", "IE", "RC", "ER"},
	}
	alchemy := []string{"Alchemy (top-down)"}
	tuffy := []string{"Tuffy (bottom-up)"}
	speedup := []string{"speedup"}
	for _, ds := range s.Datasets() {
		td, err := groundWith(ctx, ds, "topdown", db.Config{}, groundOpts())
		if err != nil {
			return nil, err
		}
		bu, err := groundWith(ctx, ds, "bottomup", db.Config{}, groundOpts())
		if err != nil {
			return nil, err
		}
		if err := sameMRFShape(td.res, bu.res); err != nil {
			return nil, fmt.Errorf("%s: grounders disagree: %w", ds.Name, err)
		}
		alchemy = append(alchemy, fmtDur(td.dur))
		tuffy = append(tuffy, fmtDur(bu.dur))
		speedup = append(speedup, fmt.Sprintf("%.1fx", float64(td.dur)/float64(bu.dur)))
	}
	t.Rows = [][]string{alchemy, tuffy, speedup}
	return t, nil
}

func groundOpts() grounding.Options { return grounding.Options{} }

func sameMRFShape(a, b *grounding.Result) error {
	if a.Stats.NumClauses != b.Stats.NumClauses {
		return fmt.Errorf("clause counts %d vs %d", a.Stats.NumClauses, b.Stats.NumClauses)
	}
	if a.Stats.NumUsedAtoms != b.Stats.NumUsedAtoms {
		return fmt.Errorf("atom counts %d vs %d", a.Stats.NumUsedAtoms, b.Stats.NumUsedAtoms)
	}
	return nil
}

// Figure3 reproduces the headline time-cost plots: Alchemy (top-down
// grounding + monolithic WalkSAT) vs Tuffy (bottom-up grounding +
// component-aware search) on all four datasets. Curves are reported as
// sampled best-cost@time points; grounding time is the curve offset as in
// the paper ("each curve begins only when grounding is completed").
func Figure3(ctx context.Context, s Scale) (*Table, error) {
	t := &Table{
		Title:  "Figure 3: time-cost, Alchemy vs Tuffy",
		Header: []string{"dataset", "system", "ground", "final cost", "curve (cost@t)"},
	}
	for _, ds := range s.Datasets() {
		// Alchemy: top-down + monolithic.
		td, err := groundWith(ctx, ds, "topdown", db.Config{}, groundOpts())
		if err != nil {
			return nil, err
		}
		trA := search.NewTracker()
		trA.Offset = td.dur
		if _, err := search.Monolithic(ctx, td.res.MRF, search.Options{MaxFlips: s.Flips, Seed: 1, Tracker: trA}); err != nil {
			return nil, err
		}

		// Tuffy: bottom-up + component-aware.
		bu, err := groundWith(ctx, ds, "bottomup", db.Config{}, groundOpts())
		if err != nil {
			return nil, err
		}
		trT := search.NewTracker()
		trT.Offset = bu.dur
		comps := bu.res.MRF.Components(true)
		res, err := search.ComponentAware(ctx, bu.res.MRF, comps, search.ComponentOptions{
			Base: search.Options{MaxFlips: s.Flips, Seed: 1, Tracker: trT},
		})
		if err != nil {
			return nil, err
		}
		finalA := trA.Final()
		t.Rows = append(t.Rows,
			[]string{ds.Name, "Alchemy", fmtDur(td.dur), fmtCost(finalA), fmt.Sprint(curvePoints(trA, 4))},
			[]string{ds.Name, "Tuffy", fmtDur(bu.dur), fmtCost(res.BestCost), fmt.Sprint(curvePoints(trT, 4))},
		)
	}
	return t, nil
}

// Figure4 compares Alchemy vs Tuffy-p (hybrid, no partitioning) vs Tuffy-mm
// (in-database search) on LP and RC.
func Figure4(ctx context.Context, s Scale) (*Table, error) {
	t := &Table{
		Title:  "Figure 4: Alchemy vs Tuffy-p vs Tuffy-mm",
		Header: []string{"dataset", "system", "ground", "flips", "final cost", "flips/sec"},
	}
	for _, ds := range []*datagen.Dataset{datagen.LP(s.LP), datagen.RC(s.RC)} {
		td, err := groundWith(ctx, ds, "topdown", db.Config{}, groundOpts())
		if err != nil {
			return nil, err
		}
		ra, err := search.Monolithic(ctx, td.res.MRF, search.Options{MaxFlips: s.Flips, Seed: 2})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{ds.Name, "Alchemy", fmtDur(td.dur),
			fmt.Sprint(ra.Flips), fmtCost(ra.BestCost), fmtRate(float64(ra.Flips) / ra.Elapsed.Seconds())})

		bu, err := groundWith(ctx, ds, "bottomup", db.Config{}, groundOpts())
		if err != nil {
			return nil, err
		}
		rp, err := search.Monolithic(ctx, bu.res.MRF, search.Options{MaxFlips: s.Flips, Seed: 2})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{ds.Name, "Tuffy-p", fmtDur(bu.dur),
			fmt.Sprint(rp.Flips), fmtCost(rp.BestCost), fmtRate(float64(rp.Flips) / rp.Elapsed.Seconds())})

		// Tuffy-mm: same grounding, search in the database with injected
		// disk latency. This is deliberately the scan-based lesion variant —
		// the paper's naive in-DB search; the set-oriented side-table
		// variant is measured against it by the flipbatch experiment.
		disk := storage.NewMemDisk()
		disk.SetLatency(s.DiskLatency)
		dmm := db.Open(db.Config{Disk: disk, BufferPoolPages: 64})
		if err := mrf.Store(bu.res.MRF, dmm, "clauses"); err != nil {
			return nil, err
		}
		rmm, err := search.RDBMSWalkSATScan(ctx, dmm, "clauses", bu.res.MRF.NumAtoms,
			search.Options{MaxFlips: s.MMFlips, Seed: 2})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{ds.Name, "Tuffy-mm", fmtDur(bu.dur),
			fmt.Sprint(rmm.Flips), fmtCost(rmm.BestCost), fmtRate(float64(rmm.Flips) / rmm.Elapsed.Seconds())})
	}
	return t, nil
}

// Table3 reproduces the flipping-rate comparison (paper: Tuffy-p ~1e5/s,
// Tuffy-mm ~1/s — three to five orders of magnitude).
func Table3(ctx context.Context, s Scale) (*Table, error) {
	t := &Table{
		Title:  "Table 3: Flipping rates (flips/sec)",
		Header: []string{"", "LP", "IE", "RC", "ER"},
	}
	alchemy := []string{"Alchemy (in-mem)"}
	mm := []string{"Tuffy-mm (in-DB)"}
	tp := []string{"Tuffy-p (in-mem)"}
	for _, ds := range s.Datasets() {
		bu, err := groundWith(ctx, ds, "bottomup", db.Config{}, groundOpts())
		if err != nil {
			return nil, err
		}
		m := bu.res.MRF
		// Alchemy and Tuffy-p share the in-memory WalkSAT engine; their
		// measured rates differ only by noise (the paper's point is the
		// contrast with Tuffy-mm).
		r1 := search.WalkSAT(ctx, m, search.Options{MaxFlips: s.Flips / 2, Seed: 3})
		alchemy = append(alchemy, fmtRate(r1.FlipRate()))
		r2 := search.WalkSAT(ctx, m, search.Options{MaxFlips: s.Flips / 2, Seed: 4})
		tp = append(tp, fmtRate(r2.FlipRate()))

		disk := storage.NewMemDisk()
		disk.SetLatency(s.DiskLatency)
		dmm := db.Open(db.Config{Disk: disk, BufferPoolPages: 64})
		if err := mrf.Store(m, dmm, "clauses"); err != nil {
			return nil, err
		}
		r3, err := search.RDBMSWalkSATScan(ctx, dmm, "clauses", m.NumAtoms, search.Options{MaxFlips: s.MMFlips, Seed: 3})
		if err != nil {
			return nil, err
		}
		mm = append(mm, fmtRate(r3.FlipRate()))
	}
	t.Rows = [][]string{alchemy, mm, tp}
	return t, nil
}

// Table4 reproduces the space-efficiency comparison: clause table size vs
// the grounder's peak footprint (Alchemy holds everything in RAM; Tuffy
// only needs the search structures).
func Table4(ctx context.Context, s Scale) (*Table, error) {
	t := &Table{
		Title:  "Table 4: Space efficiency",
		Header: []string{"", "LP", "IE", "RC", "ER"},
	}
	clauseTable := []string{"clause table"}
	alchemyRAM := []string{"Alchemy RAM (peak)"}
	tuffyRAM := []string{"Tuffy-p RAM (search)"}
	ratio := []string{"Alchemy/Tuffy"}
	for _, ds := range s.Datasets() {
		td, err := groundWith(ctx, ds, "topdown", db.Config{}, groundOpts())
		if err != nil {
			return nil, err
		}
		bu, err := groundWith(ctx, ds, "bottomup", db.Config{}, groundOpts())
		if err != nil {
			return nil, err
		}
		st := bu.res.MRF.ComputeStats()
		clauseTable = append(clauseTable, fmtBytes(st.ClauseBytes))
		alchemyRAM = append(alchemyRAM, fmtBytes(td.res.Stats.PeakBytes))
		tuffyRAM = append(tuffyRAM, fmtBytes(st.SearchBytes))
		ratio = append(ratio, fmt.Sprintf("%.1fx", float64(td.res.Stats.PeakBytes)/float64(st.SearchBytes)))
	}
	t.Rows = [][]string{clauseTable, alchemyRAM, tuffyRAM, ratio}
	return t, nil
}

// Table5 reproduces the partitioning-quality comparison: Tuffy (component-
// aware) vs Tuffy-p (monolithic) at an equal flip budget, with the RAM of
// the largest loaded unit.
func Table5(ctx context.Context, s Scale) (*Table, error) {
	t := &Table{
		Title:  "Table 5: Tuffy vs Tuffy-p (equal flip budget)",
		Header: []string{"", "LP", "IE", "RC", "ER"},
	}
	comps := []string{"#components"}
	ramP := []string{"Tuffy-p RAM"}
	ramT := []string{"Tuffy RAM"}
	costP := []string{"Tuffy-p cost"}
	costT := []string{"Tuffy cost"}
	for _, ds := range s.Datasets() {
		bu, err := groundWith(ctx, ds, "bottomup", db.Config{}, groundOpts())
		if err != nil {
			return nil, err
		}
		m := bu.res.MRF
		cs := m.Components(true)
		comps = append(comps, fmt.Sprint(len(cs)))
		st := m.ComputeStats()
		ramP = append(ramP, fmtBytes(st.SearchBytes))
		// Tuffy loads one component (batch) at a time: peak = largest.
		var maxComp int64
		for _, c := range cs {
			if b := c.MRF.ComputeStats().SearchBytes; b > maxComp {
				maxComp = b
			}
		}
		ramT = append(ramT, fmtBytes(maxComp))

		rp, err := search.Monolithic(ctx, m, search.Options{MaxFlips: s.Flips, Seed: 5})
		if err != nil {
			return nil, err
		}
		costP = append(costP, fmtCost(rp.BestCost))
		rt, err := search.ComponentAware(ctx, m, cs, search.ComponentOptions{
			Base: search.Options{MaxFlips: s.Flips, Seed: 5},
		})
		if err != nil {
			return nil, err
		}
		costT = append(costT, fmtCost(rt.BestCost))
	}
	t.Rows = [][]string{comps, ramP, ramT, costP, costT}
	return t, nil
}

// Figure5 reproduces the component-aware time-cost comparison on IE and RC.
func Figure5(ctx context.Context, s Scale) (*Table, error) {
	t := &Table{
		Title:  "Figure 5: time-cost, Tuffy vs Tuffy-p (IE, RC)",
		Header: []string{"dataset", "system", "final cost", "curve (cost@t)"},
	}
	for _, ds := range []*datagen.Dataset{datagen.IE(s.IE), datagen.RC(s.RC)} {
		bu, err := groundWith(ctx, ds, "bottomup", db.Config{}, groundOpts())
		if err != nil {
			return nil, err
		}
		m := bu.res.MRF
		trP := search.NewTracker()
		rp, err := search.Monolithic(ctx, m, search.Options{MaxFlips: s.Flips, Seed: 6, Tracker: trP})
		if err != nil {
			return nil, err
		}
		trT := search.NewTracker()
		rt, err := search.ComponentAware(ctx, m, m.Components(true), search.ComponentOptions{
			Base: search.Options{MaxFlips: s.Flips, Seed: 6, Tracker: trT},
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows,
			[]string{ds.Name, "Tuffy-p", fmtCost(rp.BestCost), fmt.Sprint(curvePoints(trP, 4))},
			[]string{ds.Name, "Tuffy", fmtCost(rt.BestCost), fmt.Sprint(curvePoints(trT, 4))},
		)
	}
	return t, nil
}

// Figure6 reproduces the memory-budget sweep: Gauss-Seidel search quality
// under three partition size bounds per dataset. The β bounds are chosen as
// fractions of the MRF's total size units (atoms + literals); "RAM" is the
// measured footprint of the largest partition — the peak a batch loader
// must hold, which is what the paper's MB labels denote. The paper's
// shapes: sparse RC keeps improving as β shrinks; LP tolerates a coarse
// split but degrades when cut grows; dense ER pays for any real split.
func Figure6(ctx context.Context, s Scale) (*Table, error) {
	t := &Table{
		Title:  "Figure 6: memory budgets (Algorithm 3 beta sweep + Gauss-Seidel)",
		Header: []string{"dataset", "beta", "parts", "max part RAM", "cut clauses", "cut frac", "final cost"},
	}
	type dcase struct {
		ds    *datagen.Dataset
		fracs []float64 // of total size units
	}
	cases := []dcase{
		{datagen.RC(s.RC), []float64{1.0, 0.05, 0.01}},
		{datagen.LP(s.LP), []float64{1.0, 0.2, 0.02}},
		{datagen.ER(s.ER), []float64{1.0, 0.02, 0.005}},
	}
	for _, c := range cases {
		bu, err := groundWith(ctx, c.ds, "bottomup", db.Config{}, groundOpts())
		if err != nil {
			return nil, err
		}
		m := bu.res.MRF
		st := m.ComputeStats()
		totalUnits := st.NumAtoms + st.NumLiterals
		for _, frac := range c.fracs {
			beta := int(float64(totalUnits) * frac)
			if frac >= 1.0 {
				beta = 0 // unbounded: connected components
			}
			pt := partition.Algorithm3(m, beta)
			var maxPart int64
			for _, p := range pt.Parts {
				if b := p.Bytes(); b > maxPart {
					maxPart = b
				}
			}
			var res *search.ComponentResult
			if pt.NumCut() > 0 {
				res, err = search.GaussSeidel(ctx, pt, search.GaussSeidelOptions{
					Base:   search.Options{MaxFlips: s.Flips / int64(3*len(pt.Parts)+1), Seed: 7},
					Rounds: 3,
				})
			} else {
				comps := partsAsComponents(pt)
				res, err = search.ComponentAware(ctx, m, comps, search.ComponentOptions{
					Base: search.Options{MaxFlips: s.Flips, Seed: 7},
				})
			}
			if err != nil {
				return nil, err
			}
			cutFrac := float64(pt.NumCut()) / float64(m.NumClauses()+1)
			t.Rows = append(t.Rows, []string{
				c.ds.Name, fmt.Sprint(beta), fmt.Sprint(len(pt.Parts)), fmtBytes(maxPart),
				fmt.Sprint(pt.NumCut()), fmt.Sprintf("%.2f", cutFrac), fmtCost(res.BestCost)})
		}
	}
	return t, nil
}

func partsAsComponents(pt *partition.Partitioning) []*mrf.Component {
	comps := make([]*mrf.Component, len(pt.Parts))
	for i, p := range pt.Parts {
		comps[i] = &mrf.Component{MRF: p.Local, GlobalAtom: p.GlobalAtom}
	}
	return comps
}

// Figure8 reproduces the Example 1 experiment (Appendix B.5): Tuffy's
// component-aware search reaches the optimum of N independent two-atom
// components almost immediately; monolithic search (Alchemy / Tuffy-p)
// stalls above it.
func Figure8(ctx context.Context, s Scale) (*Table, error) {
	t := &Table{
		Title:  "Figure 8: Example 1 (N independent components)",
		Header: []string{"system", "N", "flips", "final cost", "optimum"},
	}
	n := s.Example1N
	m := datagen.Example1(n)
	opt := float64(n)

	mono, err := search.Monolithic(ctx, m, search.Options{MaxFlips: s.Flips, Seed: 8})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"Tuffy-p/Alchemy", fmt.Sprint(n),
		fmt.Sprint(mono.Flips), fmtCost(mono.BestCost), fmtCost(opt)})

	comp, err := search.ComponentAware(ctx, m, m.Components(false), search.ComponentOptions{
		Base: search.Options{MaxFlips: s.Flips, Seed: 8},
	})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"Tuffy", fmt.Sprint(n),
		fmt.Sprint(comp.Flips), fmtCost(comp.BestCost), fmtCost(opt)})
	return t, nil
}

// Theorem31 measures hitting times on Example 1 for a sweep of N,
// demonstrating the exponential gap of Theorem 3.1.
func Theorem31(ctx context.Context, s Scale) (*Table, error) {
	t := &Table{
		Title:  "Theorem 3.1: expected hitting time to optimum, Example 1",
		Header: []string{"N", "component-aware", "monolithic", "gap"},
	}
	for _, n := range []int{2, 4, 6, 8, 10} {
		m := datagen.Example1(n)
		comps := m.Components(false)
		ct := search.ComponentHittingTime(comps, func(int) float64 { return 1 }, 10, 5_000, 9)
		mt := search.HittingTime(m, float64(n), 10, 300_000, 9)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmt.Sprintf("%.1f", ct), fmt.Sprintf("%.1f", mt),
			fmt.Sprintf("%.1fx", mt/math.Max(ct, 1))})
	}
	return t, nil
}

// Table6 reproduces the grounding lesion study: full optimizer vs fixed
// join order vs nested-loop-only joins (paper: join algorithms, not join
// order, are the key).
func Table6(ctx context.Context, s Scale) (*Table, error) {
	t := &Table{
		Title:  "Table 6: grounding lesion study (time)",
		Header: []string{"", "LP", "IE", "RC", "ER"},
	}
	full := []string{"full optimizer"}
	fixedOrder := []string{"fixed join order"}
	nlOnly := []string{"fixed join algorithm (NLJ)"}
	for _, ds := range s.Datasets() {
		g1, err := groundWith(ctx, ds, "bottomup", db.Config{}, groundOpts())
		if err != nil {
			return nil, err
		}
		full = append(full, fmtDur(g1.dur))
		g2, err := groundWith(ctx, ds, "bottomup", db.Config{Plan: plan.Options{ForceJoinOrder: true}}, groundOpts())
		if err != nil {
			return nil, err
		}
		fixedOrder = append(fixedOrder, fmtDur(g2.dur))
		g3, err := groundWith(ctx, ds, "bottomup", db.Config{Plan: plan.Options{NestedLoopOnly: true}}, groundOpts())
		if err != nil {
			return nil, err
		}
		nlOnly = append(nlOnly, fmtDur(g3.dur))
		if err := sameMRFShape(g1.res, g3.res); err != nil {
			return nil, fmt.Errorf("%s lesion changed semantics: %w", ds.Name, err)
		}
	}
	t.Rows = [][]string{full, fixedOrder, nlOnly}
	return t, nil
}

// Table7 reproduces the loading + parallelism comparison: per-component
// loading vs FFD batch loading vs batch loading + parallel search, on IE
// and RC. Loading cost is physical: clauses are read back from the RDBMS
// clause table through a latency-injected disk.
func Table7(ctx context.Context, s Scale) (*Table, error) {
	t := &Table{
		Title:  "Table 7: data loading and parallelism (execution time)",
		Header: []string{"", "IE", "RC"},
	}
	batchRow := []string{"Tuffy-batch (one component at a time)"}
	tuffyRow := []string{"Tuffy (FFD batch loading)"}
	parRow := []string{fmt.Sprintf("Tuffy + parallelism (%d workers)", runtime.NumCPU())}

	for _, ds := range []*datagen.Dataset{datagen.IE(s.IE), datagen.RC(s.RC)} {
		bu, err := groundWith(ctx, ds, "bottomup", db.Config{}, groundOpts())
		if err != nil {
			return nil, err
		}
		m := bu.res.MRF

		// Store clauses with their component id for selective re-loading.
		disk := storage.NewMemDisk()
		disk.SetLatency(s.DiskLatency / 8)
		dl := db.Open(db.Config{Disk: disk, BufferPoolPages: 16})
		comps := m.Components(true)
		if err := storeByComponent(dl, m, comps); err != nil {
			return nil, err
		}
		perCompFlips := int64(2000)

		// Tuffy-batch: load + solve components one by one (one scan each).
		start := time.Now()
		for ci := range comps {
			cm, err := loadComponent(dl, ci)
			if err != nil {
				return nil, err
			}
			search.WalkSAT(ctx, cm, search.Options{MaxFlips: perCompFlips, Seed: 10})
		}
		batchRow = append(batchRow, fmtDur(time.Since(start)))

		// Tuffy: FFD batches, one scan per batch.
		pt := partition.Algorithm3(m, 0)
		batches := partition.FirstFitDecreasing(pt.Parts, totalBytes(pt)/4+1)
		start = time.Now()
		for range batches {
			// One scan of the clause table per batch models sequential I/O.
			if _, err := loadAll(dl); err != nil {
				return nil, err
			}
		}
		for _, c := range comps {
			search.WalkSAT(ctx, c.MRF, search.Options{MaxFlips: perCompFlips, Seed: 10})
		}
		tuffyRow = append(tuffyRow, fmtDur(time.Since(start)))

		// Tuffy + parallelism: batch loading + worker pool.
		start = time.Now()
		for range batches {
			if _, err := loadAll(dl); err != nil {
				return nil, err
			}
		}
		var wg sync.WaitGroup
		work := make(chan int)
		for w := 0; w < runtime.NumCPU(); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ci := range work {
					search.WalkSAT(ctx, comps[ci].MRF, search.Options{MaxFlips: perCompFlips, Seed: 10})
				}
			}()
		}
		for ci := range comps {
			work <- ci
		}
		close(work)
		wg.Wait()
		parRow = append(parRow, fmtDur(time.Since(start)))
	}
	t.Rows = [][]string{batchRow, tuffyRow, parRow}
	return t, nil
}

func totalBytes(pt *partition.Partitioning) int64 {
	var total int64
	for _, p := range pt.Parts {
		total += p.Bytes()
	}
	return total
}

// storeByComponent writes clauses tagged with component ids.
func storeByComponent(d *db.DB, m *mrf.MRF, comps []*mrf.Component) error {
	t, err := d.CreateTable("comp_clauses", tuple.NewSchema(
		tuple.Col("comp", tuple.TInt),
		tuple.Col("weight", tuple.TInt),
		tuple.Col("lits", tuple.TIntList),
	))
	if err != nil {
		return err
	}
	for ci, comp := range comps {
		for k := range comp.MRF.W {
			c := comp.MRF.Clause(k)
			lits := make([]int64, len(c.Lits))
			for i, l := range c.Lits {
				lits[i] = int64(l)
			}
			row := tuple.Row{
				tuple.I64(int64(ci)),
				tuple.I64(int64(math.Float64bits(c.Weight))),
				tuple.IntList(lits),
			}
			if err := t.Insert(row); err != nil {
				return err
			}
		}
	}
	return d.Pool().FlushAll()
}

// loadComponent reads one component's clauses back (a full scan with a
// filter — the per-component I/O cost the FFD batching avoids).
func loadComponent(d *db.DB, comp int) (*mrf.MRF, error) {
	rows, err := d.Query(fmt.Sprintf("SELECT weight, lits FROM comp_clauses WHERE comp = %d", comp))
	if err != nil {
		return nil, err
	}
	return rowsToMRF(rows)
}

// loadAll reads the whole clause table once (one batch's sequential scan).
func loadAll(d *db.DB) (*mrf.MRF, error) {
	rows, err := d.Query("SELECT weight, lits FROM comp_clauses")
	if err != nil {
		return nil, err
	}
	return rowsToMRF(rows)
}

func rowsToMRF(rows *db.Rows) (*mrf.MRF, error) {
	maxAtom := int32(0)
	var clauses []mrf.Clause
	for _, row := range rows.Data {
		lits := make([]mrf.Lit, len(row[1].List))
		for i, l := range row[1].List {
			lits[i] = mrf.Lit(l)
			if a := mrf.Atom(mrf.Lit(l)); a > maxAtom {
				maxAtom = a
			}
		}
		clauses = append(clauses, mrf.Clause{
			Weight: math.Float64frombits(uint64(row[0].I)),
			Lits:   lits,
		})
	}
	return mrf.FromClauses(int(maxAtom), clauses), nil
}
