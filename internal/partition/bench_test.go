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
// their components (beta 0) and under a bound that cuts inside blocks.
func BenchmarkAlgorithm3(b *testing.B) {
	m := blocksMRF(rand.New(rand.NewSource(3)), 60000, 180000)
	for _, bc := range []struct {
		name string
		beta int
	}{{"components", 0}, {"bounded", 40}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				Algorithm3(m, bc.beta)
			}
		})
	}
}
