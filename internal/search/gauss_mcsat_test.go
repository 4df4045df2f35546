package search

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"tuffy/internal/datagen"
	"tuffy/internal/db"
	"tuffy/internal/mrf"
	"tuffy/internal/partition"
)

func TestGaussSeidelReachesExample1Optimum(t *testing.T) {
	m := datagen.Example1(20)
	pt := partition.Algorithm3(m, 0) // components
	if err := pt.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := GaussSeidel(context.Background(), pt, GaussSeidelOptions{
		Base:   Options{MaxFlips: 2000, Seed: 37},
		Rounds: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestCost != 20 {
		t.Fatalf("cost = %v, want 20", res.BestCost)
	}
	if got := m.Cost(res.Best); got != 20 {
		t.Fatalf("returned state cost = %v", got)
	}
}

func TestGaussSeidelWithCutClauses(t *testing.T) {
	// Example 2: two chains with a bridge; split with a small beta so the
	// bridge is cut, then verify Gauss-Seidel still reaches the optimum
	// found by exhaustive search.
	m := datagen.Example2(5) // 10 atoms: exhaustive feasible
	want := OptimalCost(m)
	pt := partition.Algorithm3(m, 40)
	if err := pt.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := GaussSeidel(context.Background(), pt, GaussSeidelOptions{
		Base:   Options{MaxFlips: 5000, Seed: 41},
		Rounds: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.BestCost-want) > 1e-9 {
		t.Fatalf("Gauss-Seidel cost = %v, optimal = %v (cut=%d)", res.BestCost, want, pt.NumCut())
	}
}

func TestGaussSeidelNeverWorseThanInit(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 5; trial++ {
		m := datagen.Example2(4 + rng.Intn(4))
		pt := partition.Algorithm3(m, 30)
		res, err := GaussSeidel(context.Background(), pt, GaussSeidelOptions{
			Base:   Options{MaxFlips: 500, Seed: int64(trial)},
			Rounds: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		initCost := m.Cost(m.NewState())
		if res.BestCost > initCost {
			t.Fatalf("trial %d: Gauss-Seidel %v worse than all-false init %v", trial, res.BestCost, initCost)
		}
	}
}

func TestMCSATSingleAtomMarginal(t *testing.T) {
	// One atom, one clause (a) with weight w: Pr[a] = 1/(1+e^{-w}).
	m := mrf.New(1)
	_ = m.AddClause(1, 1)
	probs, err := MCSAT(context.Background(), m, MCSATOptions{Samples: 4000, BurnIn: 200, Seed: 47})
	if err != nil {
		t.Fatal(err)
	}
	want := 1.0 / (1.0 + math.Exp(-1))
	if math.Abs(probs[1]-want) > 0.06 {
		t.Fatalf("Pr[a] = %v, want ~%v", probs[1], want)
	}
}

func TestMCSATHardClauseForcesAtom(t *testing.T) {
	m := mrf.New(2)
	_ = m.AddClause(math.Inf(1), 1) // a must be true
	_ = m.AddClause(1, 2)
	probs, err := MCSAT(context.Background(), m, MCSATOptions{Samples: 600, BurnIn: 50, Seed: 53})
	if err != nil {
		t.Fatal(err)
	}
	if probs[1] < 0.99 {
		t.Fatalf("hard-constrained atom Pr = %v", probs[1])
	}
	if probs[2] < 0.5 || probs[2] > 0.95 {
		t.Fatalf("soft atom Pr = %v, want in (0.5, 0.95)", probs[2])
	}
}

func TestMCSATNegativeWeightSuppresses(t *testing.T) {
	// (a, -1): worlds with a true cost 1 => Pr[a] = e^{-1}/(1+e^{-1}) ≈ 0.269.
	m := mrf.New(1)
	_ = m.AddClause(-1, 1)
	probs, err := MCSAT(context.Background(), m, MCSATOptions{Samples: 4000, BurnIn: 200, Seed: 59})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Exp(-1) / (1 + math.Exp(-1))
	if math.Abs(probs[1]-want) > 0.07 {
		t.Fatalf("Pr[a] = %v, want ~%v", probs[1], want)
	}
}

func TestSampleSATSatisfiesAll(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	m := mrf.New(6)
	_ = m.AddClause(1, 1, 2)
	_ = m.AddClause(1, -2, 3)
	_ = m.AddClause(1, -3, -4)
	_ = m.AddClause(1, 5, 6)
	init := m.NewState()
	state, ok := SampleSAT(context.Background(), m, init, MCSATOptions{}, rng)
	if !ok {
		t.Fatal("SampleSAT failed on satisfiable set")
	}
	for ci := range m.W {
		c := m.Clause(ci)
		if !c.SatisfiedBy(state) {
			t.Fatalf("clause %d unsatisfied", ci)
		}
	}
}

func TestRDBMSWalkSATMatchesInMemoryOptimum(t *testing.T) {
	m := datagen.Example1(3)
	d := db.Open(db.Config{})
	if err := mrf.Store(m, d, "clauses"); err != nil {
		t.Fatal(err)
	}
	res, err := RDBMSWalkSAT(context.Background(), d, "clauses", m.NumAtoms, Options{MaxFlips: 400, Seed: 67})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestCost != 3 {
		t.Fatalf("Tuffy-mm cost = %v, want 3", res.BestCost)
	}
	if got := m.Cost(res.Best); got != 3 {
		t.Fatalf("returned state cost = %v", got)
	}
}

func TestRDBMSWalkSATCausesIO(t *testing.T) {
	// Enough clauses that the clause table spans many pages; a 2-page
	// buffer pool must then hit the disk on every per-flip table scan.
	m := datagen.Example1(2000)
	d := db.Open(db.Config{BufferPoolPages: 2})
	if err := mrf.Store(m, d, "clauses"); err != nil {
		t.Fatal(err)
	}
	d.Disk().(interface{ ResetStats() }).ResetStats()
	_, err := RDBMSWalkSAT(context.Background(), d, "clauses", m.NumAtoms, Options{MaxFlips: 3, Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	if d.Disk().Stats().Reads == 0 {
		t.Fatal("in-database search performed no physical reads with a tiny buffer pool")
	}
}

func TestRDBMSWalkSATMissingTable(t *testing.T) {
	d := db.Open(db.Config{})
	if _, err := RDBMSWalkSAT(context.Background(), d, "nope", 1, Options{MaxFlips: 1}); err == nil {
		t.Fatal("missing table accepted")
	}
}

func TestHittingTimeExample1Small(t *testing.T) {
	// For N=1 the paper says the expected hitting time is <= 4.
	m := datagen.Example1(1)
	h := HittingTime(m, 1, 200, 1000, 73)
	if h > 10 {
		t.Fatalf("N=1 hitting time = %v, paper bound ~4", h)
	}
}
