package search

import (
	"context"
	"math"
	"reflect"
	"testing"

	"tuffy/internal/datagen"
	"tuffy/internal/db"
	"tuffy/internal/mrf"
	"tuffy/internal/partition"
)

// gsRun runs GaussSeidel on Example2 with the bridge cut, returning the
// result and the tracker cost trajectory.
func gsRun(t *testing.T, parallelism int, src ClauseSource) (*ComponentResult, []float64) {
	t.Helper()
	m := datagen.Example2(6)
	pt := partition.Algorithm3(m, 50)
	if pt.NumCut() == 0 {
		t.Fatal("workload has no cut clauses")
	}
	tr := NewTracker()
	res, err := GaussSeidel(context.Background(), pt, GaussSeidelOptions{
		Base:        Options{MaxFlips: 3000, Seed: 11, Tracker: tr},
		Rounds:      3,
		Parallelism: parallelism,
		Clauses:     src,
	})
	if err != nil {
		t.Fatal(err)
	}
	var costs []float64
	for _, p := range tr.Points() {
		costs = append(costs, p.Cost)
	}
	return res, costs
}

func TestGaussSeidelParallelDeterminism(t *testing.T) {
	base, baseCosts := gsRun(t, 1, nil)
	for _, p := range []int{2, 4, 8} {
		res, costs := gsRun(t, p, nil)
		if res.BestCost != base.BestCost {
			t.Fatalf("parallelism %d: cost %v, want %v", p, res.BestCost, base.BestCost)
		}
		if res.Flips != base.Flips {
			t.Fatalf("parallelism %d: flips %d, want %d", p, res.Flips, base.Flips)
		}
		if !reflect.DeepEqual(res.Best, base.Best) {
			t.Fatalf("parallelism %d: final state differs", p)
		}
		if !reflect.DeepEqual(costs, baseCosts) {
			t.Fatalf("parallelism %d: tracker trajectory differs: %v vs %v", p, costs, baseCosts)
		}
	}
}

// TestGaussSeidelBalancedMatchesBarrier pins the balanced pipelined
// schedule to the legacy class-barrier schedule: identical best state,
// cost, flip count, and tracker trajectory at every worker count. The
// barrier path is the reference schedule — only wall-clock may differ.
func TestGaussSeidelBalancedMatchesBarrier(t *testing.T) {
	m := datagen.Example2(6)
	pt := partition.Algorithm3(m, 50)
	if pt.NumCut() == 0 {
		t.Fatal("workload has no cut clauses")
	}
	run := func(barrier bool, parallelism int) (*ComponentResult, []float64) {
		tr := NewTracker()
		res, err := GaussSeidel(context.Background(), pt, GaussSeidelOptions{
			Base:         Options{MaxFlips: 3000, Seed: 11, Tracker: tr},
			Rounds:       3,
			Parallelism:  parallelism,
			ClassBarrier: barrier,
		})
		if err != nil {
			t.Fatal(err)
		}
		var costs []float64
		for _, p := range tr.Points() {
			costs = append(costs, p.Cost)
		}
		return res, costs
	}
	base, baseCosts := run(true, 1)
	for _, p := range []int{1, 2, 4, 8} {
		res, costs := run(false, p)
		if res.BestCost != base.BestCost || res.Flips != base.Flips {
			t.Fatalf("balanced @%d workers: cost %v flips %d, barrier %v/%d",
				p, res.BestCost, res.Flips, base.BestCost, base.Flips)
		}
		if !reflect.DeepEqual(res.Best, base.Best) {
			t.Fatalf("balanced @%d workers: final state differs from barrier", p)
		}
		if !reflect.DeepEqual(costs, baseCosts) {
			t.Fatalf("balanced @%d workers: trajectory differs: %v vs %v", p, costs, baseCosts)
		}
	}
}

func TestGaussSeidelParallelReachesOptimum(t *testing.T) {
	m := datagen.Example2(5)
	want := OptimalCost(m)
	pt := partition.Algorithm3(m, 40)
	res, err := GaussSeidel(context.Background(), pt, GaussSeidelOptions{
		Base:        Options{MaxFlips: 5000, Seed: 41},
		Rounds:      4,
		Parallelism: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.BestCost-want) > 1e-9 {
		t.Fatalf("parallel Gauss-Seidel cost = %v, optimal = %v", res.BestCost, want)
	}
	if got := m.Cost(res.Best); math.Abs(got-want) > 1e-9 {
		t.Fatalf("returned state cost = %v, want %v", got, want)
	}
}

func TestGaussSeidelDBClauseSourceMatchesRAM(t *testing.T) {
	m := datagen.Example2(6)
	pt := partition.Algorithm3(m, 50)
	d := db.Open(db.Config{BufferPoolPages: 2})
	store, err := StorePartitions(d, pt, "gs")
	if err != nil {
		t.Fatal(err)
	}
	ram, ramCosts := gsRun(t, 2, nil)
	dbr, dbCosts := gsRun(t, 2, store)
	if ram.BestCost != dbr.BestCost || !reflect.DeepEqual(ram.Best, dbr.Best) || ram.Flips != dbr.Flips {
		t.Fatalf("disk-resident clauses changed the search: cost %v vs %v, flips %d vs %d",
			dbr.BestCost, ram.BestCost, dbr.Flips, ram.Flips)
	}
	if !reflect.DeepEqual(ramCosts, dbCosts) {
		t.Fatalf("disk-resident trajectory differs: %v vs %v", dbCosts, ramCosts)
	}
}

// TestGaussSeidelParallelRace exercises concurrent partitions sharing the
// global state and the shared buffer pool under the race detector: a long
// chain of blocks (many partitions per color class) searched with 8 workers
// and disk-resident clauses through a pool smaller than the table set.
func TestGaussSeidelParallelRace(t *testing.T) {
	m := mrf.New(40)
	for b := 0; b < 10; b++ {
		base := int32(4 * b)
		for i := int32(1); i < 4; i++ {
			if err := m.AddClause(3, base+i, base+i+1); err != nil {
				t.Fatal(err)
			}
		}
		if b > 0 {
			if err := m.AddClause(0.5, base, base+1); err != nil {
				t.Fatal(err)
			}
		}
	}
	pt := partition.Algorithm3(m, 18)
	if len(pt.Parts) < 5 || pt.NumCut() == 0 {
		t.Fatalf("want many partitions with cuts, got %d parts %d cut", len(pt.Parts), pt.NumCut())
	}
	d := db.Open(db.Config{BufferPoolPages: 8})
	store, err := StorePartitions(d, pt, "race")
	if err != nil {
		t.Fatal(err)
	}
	var baseRes *ComponentResult
	for _, src := range []ClauseSource{nil, store} {
		res, err := GaussSeidel(context.Background(), pt, GaussSeidelOptions{
			Base:        Options{MaxFlips: 500, Seed: 3},
			Rounds:      3,
			Parallelism: 8,
			Clauses:     src,
		})
		if err != nil {
			t.Fatal(err)
		}
		if baseRes == nil {
			baseRes = res
		} else if res.BestCost != baseRes.BestCost {
			t.Fatalf("cost differs between RAM and DB sources: %v vs %v", res.BestCost, baseRes.BestCost)
		}
	}
}

// exhaustiveMarginals computes exact marginals of a small MRF by
// enumerating all worlds (soft clauses only).
func exhaustiveMarginals(m *mrf.MRF) []float64 {
	n := m.NumAtoms
	state := m.NewState()
	z := 0.0
	probs := make([]float64, n+1)
	for mask := 0; mask < 1<<n; mask++ {
		for i := 1; i <= n; i++ {
			state[i] = mask&(1<<(i-1)) != 0
		}
		w := math.Exp(-m.Cost(state))
		z += w
		for i := 1; i <= n; i++ {
			if state[i] {
				probs[i] += w
			}
		}
	}
	for i := 1; i <= n; i++ {
		probs[i] /= z
	}
	return probs
}

func TestGaussMCSATMatchesExhaustive(t *testing.T) {
	// Two 4-atom blocks with a weak bridge, partitioned so the bridge is
	// cut: partitioned MC-SAT marginals must track the exact ones.
	m := mrf.New(8)
	addc := func(w float64, lits ...mrf.Lit) {
		if err := m.AddClause(w, lits...); err != nil {
			t.Fatal(err)
		}
	}
	for _, base := range []int32{0, 4} {
		addc(1, base+1)
		addc(1.5, -(base + 1), base+2)
		addc(1.5, -(base + 2), base+3)
		addc(1, base+3, base+4)
	}
	addc(0.3, 4, 5)
	pt := partition.Algorithm3(m, 16)
	if pt.NumCut() != 1 || len(pt.Parts) != 2 {
		t.Fatalf("want 2 parts 1 cut, got %d parts %d cut", len(pt.Parts), pt.NumCut())
	}
	want := exhaustiveMarginals(m)
	got, err := GaussMCSAT(context.Background(), pt, MCSATOptions{Samples: 4000, BurnIn: 300, Seed: 29}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for a := 1; a <= m.NumAtoms; a++ {
		if math.Abs(got[a]-want[a]) > 0.08 {
			t.Fatalf("atom %d: Pr = %v, exact = %v", a, got[a], want[a])
		}
	}
}

func TestGaussMCSATDeterministicAcrossParallelism(t *testing.T) {
	m := datagen.Example2(4)
	pt := partition.Algorithm3(m, 35)
	if pt.NumCut() == 0 {
		t.Fatal("workload has no cut clauses")
	}
	base, err := GaussMCSAT(context.Background(), pt, MCSATOptions{Samples: 200, BurnIn: 20, Seed: 31}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 4} {
		got, err := GaussMCSAT(context.Background(), pt, MCSATOptions{Samples: 200, BurnIn: 20, Seed: 31}, p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("parallelism %d: marginals differ", p)
		}
	}
}

func TestGaussMCSATHardClauses(t *testing.T) {
	// Hard unit clause inside one partition must survive partitioned
	// sampling.
	m := mrf.New(4)
	if err := m.AddClause(math.Inf(1), 1); err != nil {
		t.Fatal(err)
	}
	if err := m.AddClause(1, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := m.AddClause(1, 3, 4); err != nil {
		t.Fatal(err)
	}
	if err := m.AddClause(0.2, 2, 3); err != nil {
		t.Fatal(err)
	}
	pt := partition.Algorithm3(m, 9)
	if pt.NumCut() == 0 {
		t.Fatalf("want a cut clause, got %d parts", len(pt.Parts))
	}
	probs, err := GaussMCSAT(context.Background(), pt, MCSATOptions{Samples: 400, BurnIn: 40, Seed: 37}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if probs[1] < 0.99 {
		t.Fatalf("hard-constrained atom Pr = %v", probs[1])
	}
}
