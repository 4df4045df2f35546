package search

import (
	"context"
	"testing"

	"tuffy/internal/datagen"
	"tuffy/internal/partition"
)

// BenchmarkWalkSATDense is the er-search workload's MAP search: ER at its
// size (60 records, 16 groups, seed 1) grounds to one dense component,
// searched with the workload's one million flips over its shared index.
func BenchmarkWalkSATDense(b *testing.B) {
	ctx := context.Background()
	m := groundDataset(b, datagen.ER(datagen.ERConfig{Records: 60, Groups: 16, Seed: 1}))
	comps := partComponents(partition.Algorithm3(m, 0))
	if len(comps) != 1 {
		b.Fatalf("ER grounds to %d components, want 1", len(comps))
	}
	comp := comps[0]
	comp.MRF.SharedPostings()
	base := Options{MaxFlips: 1_000_000, Seed: 1}.withDefaults()
	var sc Scratch
	var flips int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := RunComponent(ctx, comp, 0, int64(comp.Size()), base, nil, &sc)
		flips += r.Flips
	}
	b.ReportMetric(float64(flips)/b.Elapsed().Seconds(), "flips/s")
}

// BenchmarkGaussSeidelLP is the lp-budget workload's MAP search: LP at its
// size (15 professors, 90 students, 60 courses, seed 1) split by Algorithm 3
// under the workload's 64 KB budget (20 bytes per size unit, as the engine
// sizes it), then three Gauss-Seidel rounds over one million flips.
func BenchmarkGaussSeidelLP(b *testing.B) {
	ctx := context.Background()
	m := groundDataset(b, datagen.LP(datagen.LPConfig{Profs: 15, Students: 90, Courses: 60, Seed: 1}))
	pt := partition.Algorithm3(m, (64<<10)/20)
	if pt.NumCut() == 0 {
		b.Fatal("the 64 KB budget cut no clause")
	}
	opts := GaussSeidelOptions{Base: Options{MaxFlips: 1_000_000, Seed: 1}, Rounds: 3}
	var flips int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := GaussSeidel(ctx, pt, opts)
		if err != nil {
			b.Fatal(err)
		}
		flips += r.Flips
	}
	b.ReportMetric(float64(len(pt.Parts)), "parts")
	b.ReportMetric(float64(flips)/b.Elapsed().Seconds(), "flips/s")
}
