package tuffy_test

// One testing.B benchmark per table and figure of the paper's evaluation.
// Each benchmark delegates to the internal/bench driver that cmd/tuffybench
// also uses, so `go test -bench=.` regenerates every experiment. Drivers
// print their table once (on the first iteration) so bench output doubles
// as the experiment report.

import (
	"context"
	"os"
	"sync"
	"testing"

	"tuffy"
	"tuffy/internal/bench"
	"tuffy/internal/datagen"
	"tuffy/internal/search"
)

var benchScale = bench.DefaultScale()

// runDriver runs an experiment driver b.N times, rendering the table once.
func runDriver(b *testing.B, name string, once *sync.Once, fn func(context.Context, bench.Scale) (*bench.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		t, err := fn(context.Background(), benchScale)
		if err != nil {
			b.Fatalf("%s: %v", name, err)
		}
		once.Do(func() { t.Render(os.Stdout) })
	}
}

var (
	onceT1, onceT2, onceT3, onceT4, onceT5, onceT6, onceT7              sync.Once
	onceF3, onceF4, onceF5, onceF6, onceF8, onceThm, onceAblat, onceERp sync.Once
)

func BenchmarkTable1_DatasetStats(b *testing.B) {
	runDriver(b, "table1", &onceT1, bench.Table1)
}

func BenchmarkTable2_GroundingTime(b *testing.B) {
	runDriver(b, "table2", &onceT2, bench.Table2)
}

func BenchmarkTable3_FlippingRates(b *testing.B) {
	runDriver(b, "table3", &onceT3, bench.Table3)
}

func BenchmarkTable4_SpaceEfficiency(b *testing.B) {
	runDriver(b, "table4", &onceT4, bench.Table4)
}

func BenchmarkTable5_PartitioningQuality(b *testing.B) {
	runDriver(b, "table5", &onceT5, bench.Table5)
}

func BenchmarkTable6_LesionStudy(b *testing.B) {
	runDriver(b, "table6", &onceT6, bench.Table6)
}

func BenchmarkTable7_LoadingParallelism(b *testing.B) {
	runDriver(b, "table7", &onceT7, bench.Table7)
}

func BenchmarkFigure3_TimeCost(b *testing.B) {
	runDriver(b, "figure3", &onceF3, bench.Figure3)
}

func BenchmarkFigure4_HybridVsRDBMS(b *testing.B) {
	runDriver(b, "figure4", &onceF4, bench.Figure4)
}

func BenchmarkFigure5_ComponentAware(b *testing.B) {
	runDriver(b, "figure5", &onceF5, bench.Figure5)
}

func BenchmarkFigure6_MemoryBudgets(b *testing.B) {
	runDriver(b, "figure6", &onceF6, bench.Figure6)
}

func BenchmarkFigure8_Example1(b *testing.B) {
	runDriver(b, "figure8", &onceF8, bench.Figure8)
}

func BenchmarkTheorem31_HittingTime(b *testing.B) {
	runDriver(b, "theorem31", &onceThm, bench.Theorem31)
}

func BenchmarkSection43_ERPlusScalability(b *testing.B) {
	runDriver(b, "erplus", &onceERp, bench.ERPlus)
}

func BenchmarkAblation_ActiveClosure(b *testing.B) {
	runDriver(b, "closure", &onceAblat, bench.ClosureAblation)
}

// Micro-benchmarks of the core hot paths, for profiling regressions.

func BenchmarkWalkSATFlips(b *testing.B) {
	m := datagen.Example1(500)
	b.ResetTimer()
	search.WalkSAT(context.Background(), m, search.Options{MaxFlips: int64(b.N), Seed: 1})
}

func BenchmarkComponentDetection(b *testing.B) {
	m := datagen.Example1(2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := len(m.Components(false)); got != 2000 {
			b.Fatalf("components = %d", got)
		}
	}
}

func BenchmarkGroundingRC(b *testing.B) {
	ds := datagen.RC(datagen.RCConfig{Papers: 200, Authors: 80, Clusters: 40, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := tuffy.Open(ds.Prog, ds.Ev, tuffy.EngineConfig{})
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.Ground(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}
