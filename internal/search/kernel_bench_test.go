package search

import (
	"context"
	"fmt"
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

// BenchmarkComponentAwareRC is the rc-serve workload's MAP search in
// process: RC at its size (1200 papers, 500 authors, 8 categories, 200
// clusters, seed 1) over its Algorithm 3 parts with the workload's 100 000
// flips and no memo, at Parallelism 1 (the caller's goroutine) and 2 (the
// worker pool). Its many small components each reseed the search RNG, so
// this is the layer where the cost of a seed shows, and the ratio of its
// legs is what the pool's dispatch gains on two CPUs.
func BenchmarkComponentAwareRC(b *testing.B) {
	ctx := context.Background()
	m, comps := rcComponents(b, datagen.RCConfig{Papers: 1200, Authors: 500, Categories: 8, Clusters: 200, Seed: 1})
	for _, par := range []int{1, 2} {
		b.Run(fmt.Sprintf("par=%d", par), func(b *testing.B) {
			opts := ComponentOptions{Base: Options{MaxFlips: 100_000, MaxTries: 1, Seed: 1}, Parallelism: par}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := ComponentAware(ctx, m, comps, opts)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = r.Best
			}
			b.ReportMetric(float64(len(comps)), "components/op")
		})
	}
}

// BenchmarkGaussMCSATLP is the lp-budget workload's marginal leg: LP at its
// size under the 64 KB budget, one partitioned MC-SAT chain of 500 samples
// after 50 burn-in rounds, at Parallelism 1 and 2. Its allocs/op and B/op
// show whether the sweep's workers keep their scratches for the whole chain.
func BenchmarkGaussMCSATLP(b *testing.B) {
	ctx := context.Background()
	m := groundDataset(b, datagen.LP(datagen.LPConfig{Profs: 15, Students: 90, Courses: 60, Seed: 1}))
	pt := partition.Algorithm3(m, (64<<10)/20)
	if pt.NumCut() == 0 {
		b.Fatal("the 64 KB budget cut no clause")
	}
	opts := MCSATOptions{Samples: 500, BurnIn: 50, Seed: 1}
	for _, par := range []int{1, 2} {
		b.Run(fmt.Sprintf("par=%d", par), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				probs, err := GaussMCSAT(ctx, pt, opts, par)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = probs
			}
		})
	}
}
