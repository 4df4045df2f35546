package tuffy

// Integration tests of the public API: the full pipeline from program text
// to inferred atoms, across grounders, search modes, and inference kinds.

import (
	"context"
	"math"
	"strings"
	"testing"

	"tuffy/internal/datagen"
	"tuffy/internal/mln"
	"tuffy/internal/search"
)

// mustInferMAP runs one MAP query (grounding on demand).
func mustInferMAP(t *testing.T, eng *Engine, opts InferOptions) *MAPResult {
	t.Helper()
	res, err := eng.InferMAP(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestInferMAPFigure1(t *testing.T) {
	eng := figure1Engine(t, EngineConfig{})
	res := mustInferMAP(t, eng, InferOptions{MaxFlips: 50_000, Seed: 1})
	if math.IsInf(res.Cost, 1) {
		t.Fatal("hard clauses unsatisfied")
	}
	if res.Cost != 0 {
		t.Fatalf("Figure 1 admits a zero-cost world; got %v", res.Cost)
	}
	// P1 and P3 should adopt P2's DB label through F2/F3.
	found := map[string]bool{}
	for _, a := range res.TrueAtoms {
		found[eng.FormatAtom(a)] = true
	}
	if !found["cat(P1, DB)"] || !found["cat(P3, DB)"] {
		t.Fatalf("expected cat(P1,DB) and cat(P3,DB) in %v", found)
	}
}

func TestInferMAPModesAgreeOnCost(t *testing.T) {
	want := -1.0
	for _, mode := range []SearchMode{Auto, InMemoryMonolithic, InDatabase} {
		opts := InferOptions{MaxFlips: 30_000, Seed: 2, Mode: mode}
		if mode == InDatabase {
			opts.MaxFlips = 200 // table scans per flip: keep small
		}
		res, err := figure1Engine(t, EngineConfig{}).InferMAP(context.Background(), opts)
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if want < 0 {
			want = res.Cost
		} else if res.Cost != want {
			t.Fatalf("mode %v cost %v != %v", mode, res.Cost, want)
		}
	}
}

func TestGroundersAgreeThroughAPI(t *testing.T) {
	engB := figure1Engine(t, EngineConfig{Grounder: BottomUp})
	engT := figure1Engine(t, EngineConfig{Grounder: TopDown})
	if err := engB.Ground(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := engT.Ground(context.Background()); err != nil {
		t.Fatal(err)
	}
	sb, _ := engB.Stats()
	st, _ := engT.Stats()
	if sb.NumClauses != st.NumClauses || sb.NumUsedAtoms != st.NumUsedAtoms {
		t.Fatalf("grounders disagree: %+v vs %+v", sb, st)
	}
}

func TestInferMAPWithClosure(t *testing.T) {
	eng := figure1Engine(t, EngineConfig{UseClosure: true})
	res := mustInferMAP(t, eng, InferOptions{MaxFlips: 50_000, Seed: 3})
	if res.Cost != 0 {
		t.Fatalf("closure changed the optimum: %v", res.Cost)
	}
}

func TestInferMAPPartitionedRC(t *testing.T) {
	ds := datagen.RC(datagen.RCConfig{Papers: 120, Authors: 50, Clusters: 24, Seed: 4})
	res := mustInferMAP(t, mustOpen(t, ds.Prog, ds.Ev, EngineConfig{}), InferOptions{MaxFlips: 100_000, Seed: 4})
	if res.Partitions < 2 {
		t.Fatalf("RC should partition into components, got %d", res.Partitions)
	}
	if math.IsInf(res.Cost, 1) {
		t.Fatal("infeasible result on soft-only effective MRF")
	}
}

func TestInferMAPMemoryBudgetForcesSplit(t *testing.T) {
	ds := datagen.ER(datagen.ERConfig{Records: 24, Groups: 6, Seed: 5})
	opts := InferOptions{MaxFlips: 50_000, Seed: 5}
	whole := mustOpen(t, ds.Prog, ds.Ev, EngineConfig{})
	resW := mustInferMAP(t, whole, opts)
	if resW.Partitions != 1 {
		t.Fatalf("ER should be one component, got %d", resW.Partitions)
	}
	ms, _ := whole.MRFStats()
	split := mustOpen(t, ds.Prog, ds.Ev, EngineConfig{MemoryBudgetBytes: ms.SearchBytes / 8})
	resS := mustInferMAP(t, split, opts)
	if resS.Partitions < 2 {
		t.Fatalf("budget did not split: %d partitions", resS.Partitions)
	}
	if resS.CutClauses == 0 {
		t.Fatal("dense ER split must cut clauses")
	}
}

func TestHybridFallbackToInDatabaseSearch(t *testing.T) {
	// Single-atom components whose byte footprint exceeds a tiny memory
	// budget trigger the Section 3.2 fallback: search runs inside the
	// RDBMS for those components.
	prog, err := LoadProgramString(`
thing = {A, B, C}
p(thing)
1 p(x)
`)
	if err != nil {
		t.Fatal(err)
	}
	ev := mln.NewEvidence(prog)
	eng := mustOpen(t, prog, ev, EngineConfig{
		MemoryBudgetBytes: 41, // below one single-atom component's footprint
	})
	res := mustInferMAP(t, eng, InferOptions{MaxFlips: 1000, Seed: 9})
	if res.InDBComponents == 0 {
		t.Fatal("expected in-database fallback components")
	}
	if res.Cost != 0 {
		t.Fatalf("cost = %v; in-DB search should still satisfy the unit clauses", res.Cost)
	}
	if len(res.TrueAtoms) != 3 {
		t.Fatalf("want all 3 atoms true, got %v", res.TrueAtoms)
	}
}

func TestInferMarginalFigure1(t *testing.T) {
	eng := figure1Engine(t, EngineConfig{})
	res, err := eng.InferMarginal(context.Background(), InferOptions{Seed: 6, Samples: 300})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Probs) == 0 {
		t.Fatal("no marginals")
	}
	cat := eng.Prog().MustPredicate("cat")
	net, _ := eng.Prog().Syms.Lookup("Networking")
	db, _ := eng.Prog().Syms.Lookup("DB")
	var pNet, pDB float64
	nNet, nDB := 0, 0
	for _, ap := range res.Probs {
		if ap.Atom.Pred != cat {
			continue
		}
		if ap.P < -1e-9 || ap.P > 1+1e-9 {
			t.Fatalf("probability out of range: %v", ap.P)
		}
		switch ap.Atom.Args[1] {
		case net:
			pNet += ap.P
			nNet++
		case db:
			pDB += ap.P
			nDB++
		}
	}
	if nNet == 0 || nDB == 0 {
		t.Fatal("missing category atoms")
	}
	// F5 penalizes Networking: its average marginal must be below DB's.
	if pNet/float64(nNet) >= pDB/float64(nDB) {
		t.Fatalf("Networking average %.3f should be below DB average %.3f",
			pNet/float64(nNet), pDB/float64(nDB))
	}
}

func TestStatsBeforeGroundFails(t *testing.T) {
	eng := figure1Engine(t, EngineConfig{})
	if _, err := eng.Stats(); err == nil {
		t.Fatal("Stats before Ground should fail")
	}
	if _, err := eng.MRFStats(); err == nil {
		t.Fatal("MRFStats before Ground should fail")
	}
}

func TestLoadProgramErrors(t *testing.T) {
	if _, err := LoadProgramString("1 undeclared(x)"); err == nil {
		t.Fatal("bad program accepted")
	}
	prog, _ := LoadProgramString("p(t)")
	if _, err := LoadEvidence(prog, strings.NewReader("q(A)")); err == nil {
		t.Fatal("bad evidence accepted")
	}
}

func TestParallelismMatchesSequential(t *testing.T) {
	ds := datagen.IE(datagen.IEConfig{Chains: 150, Seed: 7})
	run := func(par int) float64 {
		eng := mustOpen(t, ds.Prog, ds.Ev, EngineConfig{})
		return mustInferMAP(t, eng, InferOptions{MaxFlips: 60_000, Seed: 7, Parallelism: par}).Cost
	}
	// Per-component seeds are fixed, so the only difference is the
	// float summation order across workers.
	if c1, c4 := run(1), run(4); math.Abs(c1-c4) > 1e-6 {
		t.Fatalf("parallel cost %v != sequential %v", c4, c1)
	}
}

func TestTrackerThroughOptions(t *testing.T) {
	tr := search.NewTracker()
	mustInferMAP(t, figure1Engine(t, EngineConfig{}), InferOptions{MaxFlips: 10_000, Seed: 8, Tracker: tr})
	if len(tr.Points()) == 0 {
		t.Fatal("tracker observed no best-cost samples")
	}
}
