package tuffy

// Tests of the Engine/Query API: ground once, serve many concurrent
// inferences, cancel gracefully, reclaim per-query helper storage.

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"tuffy/internal/datagen"
	"tuffy/internal/db"
	"tuffy/internal/db/storage"
	"tuffy/internal/mln"
)

func figure1Engine(t *testing.T, cfg EngineConfig) *Engine {
	t.Helper()
	prog, err := LoadProgramString(mln.Figure1Program)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := LoadEvidenceString(prog, mln.Figure1Evidence)
	if err != nil {
		t.Fatal(err)
	}
	return mustOpen(t, prog, ev, cfg)
}

func mustOpen(t *testing.T, prog *mln.Program, ev *mln.Evidence, cfg EngineConfig) *Engine {
	t.Helper()
	eng, err := Open(prog, ev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func sameStates(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// One grounded Engine must serve many simultaneous queries, each
// bit-identical to the same query run alone. The mix covers all three MAP
// modes plus marginal inference, with distinct seeds. Runs under -race in
// CI.
func TestConcurrentQueriesBitIdenticalToSequential(t *testing.T) {
	ctx := context.Background()
	eng := figure1Engine(t, EngineConfig{})
	if err := eng.Ground(ctx); err != nil {
		t.Fatal(err)
	}

	mapQueries := []InferOptions{
		{Mode: Auto, MaxFlips: 20_000, Seed: 1},
		{Mode: Auto, MaxFlips: 20_000, Seed: 2, Parallelism: 4},
		{Mode: InMemoryMonolithic, MaxFlips: 20_000, Seed: 3},
		// Two simultaneous in-DB queries share the read-only clause table
		// (concurrent cid-index build/drop, disjoint helper tables).
		{Mode: InDatabase, MaxFlips: 150, Seed: 4},
		{Mode: InDatabase, MaxFlips: 150, Seed: 5},
	}
	margQuery := InferOptions{Samples: 150, Seed: 5}

	// Sequential reference runs on the same engine.
	wantMAP := make([]*MAPResult, len(mapQueries))
	for i, q := range mapQueries {
		r, err := eng.InferMAP(ctx, q)
		if err != nil {
			t.Fatalf("sequential query %d: %v", i, err)
		}
		wantMAP[i] = r
	}
	wantMarg, err := eng.InferMarginal(ctx, margQuery)
	if err != nil {
		t.Fatal(err)
	}

	// The same queries, all at once.
	var wg sync.WaitGroup
	gotMAP := make([]*MAPResult, len(mapQueries))
	errs := make([]error, len(mapQueries)+1)
	var gotMarg *MarginalResult
	for i, q := range mapQueries {
		wg.Add(1)
		go func(i int, q InferOptions) {
			defer wg.Done()
			gotMAP[i], errs[i] = eng.InferMAP(ctx, q)
		}(i, q)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		gotMarg, errs[len(mapQueries)] = eng.InferMarginal(ctx, margQuery)
	}()
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent query %d: %v", i, err)
		}
	}
	for i := range mapQueries {
		if gotMAP[i].Cost != wantMAP[i].Cost {
			t.Fatalf("query %d: concurrent cost %v != sequential %v", i, gotMAP[i].Cost, wantMAP[i].Cost)
		}
		if gotMAP[i].Flips != wantMAP[i].Flips {
			t.Fatalf("query %d: concurrent flips %d != sequential %d", i, gotMAP[i].Flips, wantMAP[i].Flips)
		}
		if !sameStates(gotMAP[i].State, wantMAP[i].State) {
			t.Fatalf("query %d: concurrent best state differs from sequential", i)
		}
	}
	if len(gotMarg.Probs) != len(wantMarg.Probs) {
		t.Fatalf("marginal lengths differ: %d vs %d", len(gotMarg.Probs), len(wantMarg.Probs))
	}
	for i := range wantMarg.Probs {
		if gotMarg.Probs[i].P != wantMarg.Probs[i].P {
			t.Fatalf("marginal %d: concurrent %v != sequential %v", i, gotMarg.Probs[i].P, wantMarg.Probs[i].P)
		}
	}
}

// Concurrent Gauss-Seidel queries (budget-split partitioning with cut
// clauses) over one shared Partitioning must also be bit-identical.
func TestConcurrentGaussSeidelQueries(t *testing.T) {
	ctx := context.Background()
	ds := datagen.ER(datagen.ERConfig{Records: 24, Groups: 6, Seed: 5})
	probe := mustOpen(t, ds.Prog, ds.Ev, EngineConfig{})
	if err := probe.Ground(ctx); err != nil {
		t.Fatal(err)
	}
	ms, _ := probe.MRFStats()

	eng := mustOpen(t, ds.Prog, ds.Ev, EngineConfig{MemoryBudgetBytes: ms.SearchBytes / 8})
	if err := eng.Ground(ctx); err != nil {
		t.Fatal(err)
	}

	queries := []InferOptions{
		{MaxFlips: 10_000, Seed: 11},
		{MaxFlips: 10_000, Seed: 12, Parallelism: 2},
		{MaxFlips: 10_000, Seed: 13},
		{MaxFlips: 10_000, Seed: 14, Parallelism: 4},
	}
	want := make([]*MAPResult, len(queries))
	for i, q := range queries {
		r, err := eng.InferMAP(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if r.CutClauses == 0 {
			t.Fatal("budget split must cut clauses")
		}
		want[i] = r
	}

	var wg sync.WaitGroup
	got := make([]*MAPResult, len(queries))
	errs := make([]error, len(queries))
	for i, q := range queries {
		wg.Add(1)
		go func(i int, q InferOptions) {
			defer wg.Done()
			got[i], errs[i] = eng.InferMAP(ctx, q)
		}(i, q)
	}
	wg.Wait()
	for i := range queries {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if got[i].Cost != want[i].Cost || got[i].Flips != want[i].Flips || !sameStates(got[i].State, want[i].State) {
			t.Fatalf("query %d: concurrent result differs from sequential", i)
		}
	}
}

// contradictionEngine builds a workload whose violated set never empties,
// so a search runs until its budget or context stops it.
func contradictionEngine(t *testing.T, cfg EngineConfig) *Engine {
	t.Helper()
	prog, err := LoadProgramString(`
thing = {A, B, C, D, E, F, G, H}
p(thing)
1 p(x)
1 !p(x)
`)
	if err != nil {
		t.Fatal(err)
	}
	return mustOpen(t, prog, mln.NewEvidence(prog), cfg)
}

// assertCanceledMAP checks the cancellation contract: typed error, prompt
// return, valid best-so-far state.
func assertCanceledMAP(t *testing.T, res *MAPResult, err error, elapsed time.Duration, numAtoms int) {
	t.Helper()
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if elapsed > time.Second {
		t.Fatalf("cancel took %v, want < 1s", elapsed)
	}
	if res == nil {
		t.Fatal("canceled query returned no result")
	}
	if res.State == nil || len(res.State) != numAtoms+1 {
		t.Fatalf("canceled query state has %d slots, want %d", len(res.State), numAtoms+1)
	}
}

func TestCancelInMemorySearch(t *testing.T) {
	eng := contradictionEngine(t, EngineConfig{})
	if err := eng.Ground(context.Background()); err != nil {
		t.Fatal(err)
	}
	goroutines := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := eng.InferMAP(ctx, InferOptions{Mode: InMemoryMonolithic, MaxFlips: math.MaxInt64 / 2, Seed: 1})
	assertCanceledMAP(t, res, err, time.Since(start), eng.Grounded().MRF.NumAtoms)
	waitForGoroutines(t, goroutines)
}

func TestCancelGaussSeidelSearch(t *testing.T) {
	ctx := context.Background()
	// Dense ER split under a budget cuts clauses, so the Gauss-Seidel path
	// runs; its soft conflicts keep the violated set non-empty, so the
	// search spins until the context stops it.
	ds := datagen.ER(datagen.ERConfig{Records: 24, Groups: 6, Seed: 5})
	probe := mustOpen(t, ds.Prog, ds.Ev, EngineConfig{})
	if err := probe.Ground(ctx); err != nil {
		t.Fatal(err)
	}
	ms, _ := probe.MRFStats()
	eng := mustOpen(t, ds.Prog, ds.Ev, EngineConfig{MemoryBudgetBytes: ms.SearchBytes / 8})
	if err := eng.Ground(ctx); err != nil {
		t.Fatal(err)
	}
	goroutines := runtime.NumGoroutine()
	cctx, cancel := context.WithTimeout(ctx, 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := eng.InferMAP(cctx, InferOptions{MaxFlips: math.MaxInt64 / 4, GaussSeidelRounds: 1 << 20, Seed: 2})
	assertCanceledMAP(t, res, err, time.Since(start), eng.Grounded().MRF.NumAtoms)
	if res.CutClauses == 0 {
		// The split may have produced no cut on this tiny workload; the
		// test then exercised the component path instead, which is covered
		// elsewhere — require the cut so the Gauss-Seidel path is the one
		// canceled.
		t.Fatal("budget did not cut clauses; Gauss-Seidel path not exercised")
	}
	waitForGoroutines(t, goroutines)
}

func TestCancelInDatabaseSearch(t *testing.T) {
	eng := contradictionEngine(t, EngineConfig{})
	if err := eng.Ground(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Warm query: creates the shared clause table.
	if _, err := eng.InferMAP(context.Background(), InferOptions{Mode: InDatabase, MaxFlips: 5, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	tablesBefore := len(eng.DB().TableNames())
	goroutines := runtime.NumGoroutine()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := eng.InferMAP(ctx, InferOptions{Mode: InDatabase, MaxFlips: math.MaxInt64 / 4, Seed: 3})
	assertCanceledMAP(t, res, err, time.Since(start), eng.Grounded().MRF.NumAtoms)

	if after := len(eng.DB().TableNames()); after != tablesBefore {
		t.Fatalf("catalog grew from %d to %d tables: canceled query leaked helper tables", tablesBefore, after)
	}
	waitForGoroutines(t, goroutines)
}

func TestCancelMarginal(t *testing.T) {
	eng := figure1Engine(t, EngineConfig{})
	if err := eng.Ground(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := eng.InferMarginal(ctx, InferOptions{Samples: math.MaxInt32 / 2, Seed: 4})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if time.Since(start) > time.Second {
		t.Fatalf("cancel took %v", time.Since(start))
	}
	if res == nil {
		t.Fatal("canceled marginal returned no result")
	}
	for _, ap := range res.Probs {
		if ap.P < 0 || ap.P > 1 {
			t.Fatalf("marginal %v out of range", ap.P)
		}
	}
}

// waitForGoroutines gives canceled workers a moment to exit, then asserts
// no goroutines leaked.
func waitForGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d running, want <= %d", runtime.NumGoroutine(), want)
}

// Repeated in-database queries on one Engine must not leak pages: the
// per-query helper tables (inverted index + violated side table) are
// dropped and their storage reused, holding the disk footprint at the
// high-water mark of one query.
func TestRepeatedInDBQueriesPageStable(t *testing.T) {
	disk := storage.NewMemDisk()
	eng := contradictionEngine(t, EngineConfig{DB: db.Config{Disk: disk}})
	ctx := context.Background()
	if err := eng.Ground(ctx); err != nil {
		t.Fatal(err)
	}
	run := func(seed int64) {
		if _, err := eng.InferMAP(ctx, InferOptions{Mode: InDatabase, MaxFlips: 50, Seed: seed}); err != nil {
			t.Fatal(err)
		}
	}
	run(1)
	baseline := disk.PageFootprint()
	if baseline == 0 {
		t.Fatal("no pages allocated")
	}
	for i := int64(2); i <= 6; i++ {
		run(i)
		if got := disk.PageFootprint(); got != baseline {
			t.Fatalf("query %d: page footprint %d != baseline %d (helper-table pages leaked)", i, got, baseline)
		}
	}
}

// The hybrid fallback's in-DB budget (MaxFlips/100) must clamp to >= 1:
// with a tiny total budget, oversized components still search (and on
// these unit-clause singletons one flip suffices to reach the optimum).
func TestHybridFallbackFlipBudgetClamp(t *testing.T) {
	prog, err := LoadProgramString(`
thing = {A, B, C}
p(thing)
1 p(x)
`)
	if err != nil {
		t.Fatal(err)
	}
	eng := mustOpen(t, prog, mln.NewEvidence(prog), EngineConfig{
		MemoryBudgetBytes: 41, // below one single-atom component's footprint
	})
	res, err := eng.InferMAP(context.Background(), InferOptions{
		MaxFlips: 50, // 50/100 == 0 before the clamp
		Seed:     9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.InDBComponents == 0 {
		t.Fatal("expected in-database fallback components")
	}
	if res.Cost != 0 {
		t.Fatalf("cost = %v; the clamped one-flip budget should still satisfy the unit clauses", res.Cost)
	}
	if len(res.TrueAtoms) != 3 {
		t.Fatalf("want all 3 atoms true, got %v", res.TrueAtoms)
	}
}

// A canceled Ground must tear its half-built predicate tables down and
// leave the Engine re-Groundable in place: the retry sees a clean catalog
// and produces the same grounding a fresh Engine would.
func TestGroundCancelThenRetry(t *testing.T) {
	ds := datagen.ER(datagen.ERConfig{Records: 30, Groups: 8, Seed: 3})
	eng := mustOpen(t, ds.Prog, ds.Ev, EngineConfig{})

	// Cancel before grounding starts: the build is skipped (or torn down)
	// and the catalog must end empty either way.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := eng.Ground(ctx); !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled Ground: err = %v, want ErrCanceled", err)
	}
	if n := len(eng.DB().TableNames()); n != 0 {
		t.Fatalf("canceled Ground left %d tables in the catalog: %v", n, eng.DB().TableNames())
	}
	if eng.Tables() != nil || eng.Grounded() != nil {
		t.Fatal("canceled Ground left grounded state on the engine")
	}

	// Retry in place must succeed and match a fresh engine bit for bit.
	if err := eng.Ground(context.Background()); err != nil {
		t.Fatalf("retry Ground: %v", err)
	}
	fresh := mustOpen(t, ds.Prog, ds.Ev, EngineConfig{})
	if err := fresh.Ground(context.Background()); err != nil {
		t.Fatal(err)
	}
	gs, _ := eng.Stats()
	fs, _ := fresh.Stats()
	if gs.NumClauses != fs.NumClauses || gs.NumUsedAtoms != fs.NumUsedAtoms {
		t.Fatalf("retried grounding differs: %+v vs fresh %+v", gs, fs)
	}
	res, err := eng.InferMAP(context.Background(), InferOptions{MaxFlips: 5_000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.InferMAP(context.Background(), InferOptions{MaxFlips: 5_000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != want.Cost || !sameStates(res.State, want.State) {
		t.Fatalf("retried engine answers differ: cost %v vs %v", res.Cost, want.Cost)
	}

	// Repeated cancel/retry cycles must hold the catalog and page
	// footprint at a successful ground's level (no leaked predicate
	// tables or pages across retries).
	disk := storage.NewMemDisk()
	eng2 := mustOpen(t, ds.Prog, ds.Ev, EngineConfig{DB: db.Config{Disk: disk}})
	for i := 0; i < 3; i++ {
		cctx, ccancel := context.WithCancel(context.Background())
		ccancel()
		if err := eng2.Ground(cctx); !errors.Is(err, ErrCanceled) {
			t.Fatalf("cycle %d: err = %v, want ErrCanceled", i, err)
		}
		if n := len(eng2.DB().TableNames()); n != 0 {
			t.Fatalf("cycle %d left %d tables", i, n)
		}
	}
	if err := eng2.Ground(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := eng2.Ground(context.Background()); err != nil {
		t.Fatalf("Ground after success must stay idempotent: %v", err)
	}
}
