package partition

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"tuffy/internal/mrf"
)

// blocksMRF is n atoms in blocks of 10 — many small components, the shape
// of an information-extraction network — with clauses of one to three
// literals inside a block and, rarely, across two, under random weights.
func blocksMRF(rng *rand.Rand, n, clauses int) *mrf.MRF {
	m := mrf.New(n)
	for c := 0; c < clauses; c++ {
		base := 10 * rng.Intn(n/10)
		if rng.Intn(50) == 0 {
			base = rng.Intn(n - 10)
		}
		lits := make([]mrf.Lit, 1+rng.Intn(3))
		for i := range lits {
			lits[i] = mrf.Lit(base + 1 + rng.Intn(10))
			if rng.Intn(2) == 0 {
				lits[i] = -lits[i]
			}
		}
		_ = m.AddClause(rng.NormFloat64(), lits...)
	}
	return m
}

// starBlocksMRF is n atoms in blocks of 10 whose clauses are generated
// block by block, each over the block's first atom and up to two more of
// it: every component's clauses are contiguous, as in a network folded
// component by component, so Algorithm3's parts are windows into it.
func starBlocksMRF(rng *rand.Rand, n, clauses int) *mrf.MRF {
	m := mrf.New(n)
	for c := 0; c < clauses; c++ {
		base := 10 * (c * (n / 10) / clauses)
		lits := []mrf.Lit{mrf.Lit(base + 1)}
		for range rng.Intn(3) {
			lits = append(lits, mrf.Lit(base+2+rng.Intn(9)))
		}
		for i := range lits {
			if rng.Intn(2) == 0 {
				lits[i] = -lits[i]
			}
		}
		m.Append(rng.NormFloat64(), lits)
	}
	return m
}

// Without a bound the weight order is skipped: the partitioning is the one
// the sorted scan under an unreachable bound produces — same parts in the
// same order, same cut.
func TestAlgorithm3UnboundedSkipsOnlyTheSort(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 20; trial++ {
		m := blocksMRF(rng, 10*(1+rng.Intn(30)), rng.Intn(400))
		got, want := Algorithm3(m, 0), Algorithm3(m, math.MaxInt32)
		if !reflect.DeepEqual(got.PartOf, want.PartOf) || !reflect.DeepEqual(got.Parts, want.Parts) ||
			!reflect.DeepEqual(got.Cut, want.Cut) || got.CutWeight != want.CutWeight {
			t.Fatalf("trial %d: unbounded partitioning differs from the sorted scan", trial)
		}
	}
}

// BenchmarkAlgorithm3 partitions 60 000 atoms and 180 000 clauses into
// their components (beta 0) and under a bound that cuts inside blocks, and
// a network of the same size whose components' clauses are contiguous into
// its components, which are then windows: its B/op is what the arenas of
// the other legs cost beside the renumbered literals.
func BenchmarkAlgorithm3(b *testing.B) {
	scattered := blocksMRF(rand.New(rand.NewSource(3)), 60000, 180000)
	contiguous := starBlocksMRF(rand.New(rand.NewSource(3)), 60000, 180000)
	for _, bc := range []struct {
		name string
		m    *mrf.MRF
		beta int
	}{{"components", scattered, 0}, {"bounded", scattered, 40}, {"windows", contiguous, 0}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				pt := Algorithm3(bc.m, bc.beta)
				if (pt.renumbered != nil) != (bc.name == "windows") {
					b.Fatalf("%s: parts are windows: %v", bc.name, pt.renumbered != nil)
				}
			}
		})
	}
}
