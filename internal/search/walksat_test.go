package search

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"tuffy/internal/datagen"
	"tuffy/internal/mrf"
)

func TestWalkSATSolvesTinySAT(t *testing.T) {
	// (x1 v x2) & (!x1 v x2) & (x1 v !x2): optimum x1=x2=true, cost 0.
	m := mrf.New(2)
	_ = m.AddClause(1, 1, 2)
	_ = m.AddClause(1, -1, 2)
	_ = m.AddClause(1, 1, -2)
	r := WalkSAT(context.Background(), m, Options{MaxFlips: 10_000, Seed: 1})
	if r.BestCost != 0 {
		t.Fatalf("cost = %v", r.BestCost)
	}
	if !r.Best[1] || !r.Best[2] {
		t.Fatalf("best = %v", r.Best)
	}
}

func TestWalkSATExample1SingleComponent(t *testing.T) {
	m := datagen.Example1(1)
	r := WalkSAT(context.Background(), m, Options{MaxFlips: 1000, Seed: 2})
	if r.BestCost != 1 {
		t.Fatalf("Example1 N=1 optimum cost = %v, want 1", r.BestCost)
	}
}

func TestWalkSATRespectsHardClauses(t *testing.T) {
	// hard: x1 must be true; soft: x1 false (weight 3). Optimum: x1 true,
	// cost 3 (soft violated), not +Inf.
	m := mrf.New(1)
	_ = m.AddClause(math.Inf(1), 1)
	_ = m.AddClause(3, -1)
	r := WalkSAT(context.Background(), m, Options{MaxFlips: 1000, Seed: 3})
	if r.BestCost != 3 {
		t.Fatalf("cost = %v, want 3", r.BestCost)
	}
	if !r.Best[1] {
		t.Fatal("hard clause violated in best state")
	}
}

func TestWalkSATNegativeWeights(t *testing.T) {
	// (x1, -2): violated when true. Optimum: x1 false, cost 0.
	m := mrf.New(1)
	_ = m.AddClause(-2, 1)
	r := WalkSAT(context.Background(), m, Options{MaxFlips: 1000, Seed: 4})
	if r.BestCost != 0 {
		t.Fatalf("cost = %v", r.BestCost)
	}
	if r.Best[1] {
		t.Fatal("best should set x1 false")
	}
}

func TestWalkSATFixedCostIncluded(t *testing.T) {
	m := mrf.New(1)
	m.FixedCost = 2.5
	_ = m.AddClause(1, 1)
	r := WalkSAT(context.Background(), m, Options{MaxFlips: 100, Seed: 5})
	if r.BestCost != 2.5 {
		t.Fatalf("cost = %v, want 2.5 (fixed)", r.BestCost)
	}
}

func TestWalkSATInitState(t *testing.T) {
	// With a huge MRF and 0 flips allowed, the result is the init state.
	m := datagen.Example1(10)
	init := m.NewState()
	for i := 1; i <= m.NumAtoms; i++ {
		init[i] = true // the optimal state
	}
	r := WalkSAT(context.Background(), m, Options{MaxFlips: 1, Seed: 6, InitState: init})
	if r.BestCost != 10 {
		t.Fatalf("cost from optimal init = %v, want 10", r.BestCost)
	}
}

func TestWalkSATTargetCostStopsEarly(t *testing.T) {
	m := datagen.Example1(3)
	r := WalkSAT(context.Background(), m, Options{MaxFlips: 1_000_000, Seed: 7, TargetCost: 3})
	if r.HitFlips < 0 {
		t.Fatal("target never hit")
	}
	if r.Flips > 100_000 {
		t.Fatalf("did not stop early: %d flips", r.Flips)
	}
}

func TestWalkSATDeterministicWithSeed(t *testing.T) {
	m := datagen.Example1(5)
	r1 := WalkSAT(context.Background(), m, Options{MaxFlips: 500, Seed: 42})
	r2 := WalkSAT(context.Background(), m, Options{MaxFlips: 500, Seed: 42})
	if r1.BestCost != r2.BestCost || r1.Flips != r2.Flips {
		t.Fatalf("nondeterministic: %v/%v vs %v/%v", r1.BestCost, r1.Flips, r2.BestCost, r2.Flips)
	}
}

// The engine's incremental cost must match the from-scratch MRF cost after
// arbitrary flip sequences.
func TestEngineIncrementalCostProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(12)
		m := mrf.New(n)
		nc := 1 + rng.Intn(25)
		for i := 0; i < nc; i++ {
			maxWidth := 3
			if n < maxWidth {
				maxWidth = n
			}
			width := 1 + rng.Intn(maxWidth)
			seen := map[mrf.AtomID]bool{}
			var lits []mrf.Lit
			for len(lits) < width {
				a := mrf.AtomID(1 + rng.Intn(n))
				if seen[a] {
					continue
				}
				seen[a] = true
				l := a
				if rng.Intn(2) == 0 {
					l = -a
				}
				lits = append(lits, l)
			}
			w := float64(1 + rng.Intn(4))
			if rng.Intn(3) == 0 {
				w = -w
			}
			_ = m.AddClause(w, lits...)
		}
		e := testEngine(m, rng)
		for step := 0; step < 50; step++ {
			a := mrf.AtomID(1 + rng.Intn(n))
			predicted := e.deltaCost(a)
			before := e.cost
			e.flip(a)
			if math.Abs(e.cost-(before+predicted)) > 1e-9 {
				t.Fatalf("trial %d: deltaCost %v but cost moved %v", trial, predicted, e.cost-before)
			}
			if math.Abs(e.reportedCost()-m.Cost(e.state)) > 1e-9 {
				t.Fatalf("trial %d: incremental cost %v != recomputed %v", trial, e.reportedCost(), m.Cost(e.state))
			}
		}
	}
}

// testEngine indexes m privately and installs a random start state.
func testEngine(m *mrf.MRF, rng *rand.Rand) *engine {
	sc := new(Scratch)
	e := sc.engineFor(m, sc.index(m), 1e7)
	e.reset(sc.randomStart(m.NumAtoms, rng))
	return e
}

func TestEngineViolSetConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := datagen.Example1(6)
	e := testEngine(m, rng)
	for step := 0; step < 200; step++ {
		e.flip(mrf.AtomID(1 + rng.Intn(m.NumAtoms)))
		want := 0
		for ci := range m.Clauses {
			if e.isViolated(int32(ci)) {
				want++
				if e.violPos[ci] < 0 {
					t.Fatalf("violated clause %d missing from viol set", ci)
				}
			} else if e.violPos[ci] >= 0 {
				t.Fatalf("satisfied clause %d in viol set", ci)
			}
		}
		if len(e.viol) != want {
			t.Fatalf("viol set size %d, want %d", len(e.viol), want)
		}
	}
}

func TestOptimalCostExample1(t *testing.T) {
	m := datagen.Example1(4)
	if got := OptimalCost(m); got != 4 {
		t.Fatalf("optimal cost = %v, want 4", got)
	}
}

func TestComponentAwareFindsOptimum(t *testing.T) {
	const n = 50
	m := datagen.Example1(n)
	comps := m.Components(false)
	if len(comps) != n {
		t.Fatalf("components = %d", len(comps))
	}
	res, err := ComponentAware(context.Background(), m, comps, ComponentOptions{
		Base: Options{MaxFlips: int64(400 * n), Seed: 17},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestCost != n {
		t.Fatalf("component-aware cost = %v, want %d", res.BestCost, n)
	}
	// Verify stitched global state really has that cost.
	if got := m.Cost(res.Best); got != float64(n) {
		t.Fatalf("stitched state cost = %v", got)
	}
}

func TestComponentAwareParallelMatches(t *testing.T) {
	m := datagen.Example1(30)
	comps := m.Components(false)
	seq, err := ComponentAware(context.Background(), m, comps, ComponentOptions{Base: Options{MaxFlips: 12000, Seed: 19}, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := ComponentAware(context.Background(), m, comps, ComponentOptions{Base: Options{MaxFlips: 12000, Seed: 19}, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if seq.BestCost != par.BestCost {
		t.Fatalf("parallel cost %v != sequential %v", par.BestCost, seq.BestCost)
	}
}

// Theorem 3.1's empirical content: monolithic WalkSAT needs far more flips
// than component-aware search to reach the optimum of Example 1.
func TestTheorem31HittingTimeGap(t *testing.T) {
	const n = 12
	m := datagen.Example1(n)
	comps := m.Components(false)

	compTime := ComponentHittingTime(comps, func(int) float64 { return 1 }, 5, 10_000, 23)
	monoTime := HittingTime(m, n, 5, 200_000, 23)

	if compTime <= 0 {
		t.Fatalf("component hitting time = %v", compTime)
	}
	if monoTime < 4*compTime {
		t.Fatalf("expected large gap: monolithic %v vs component %v flips", monoTime, compTime)
	}
}

func TestMonolithicWrapper(t *testing.T) {
	m := datagen.Example1(2)
	res, err := Monolithic(context.Background(), m, Options{MaxFlips: 5000, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestCost < 2 {
		t.Fatalf("impossible cost %v", res.BestCost)
	}
	if res.Best == nil {
		t.Fatal("no best state")
	}
}

func TestTrackerRecordsMonotoneReadings(t *testing.T) {
	m := datagen.Example1(5)
	tr := NewTracker()
	WalkSAT(context.Background(), m, Options{MaxFlips: 2000, Seed: 31, Tracker: tr})
	pts := tr.Points()
	if len(pts) == 0 {
		t.Fatal("no trace points")
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Cost > pts[i-1].Cost {
			t.Fatalf("best-cost trace increased: %v -> %v", pts[i-1].Cost, pts[i].Cost)
		}
		if pts[i].Elapsed < pts[i-1].Elapsed {
			t.Fatalf("time went backwards")
		}
	}
	if tr.Final() > pts[0].Cost {
		t.Fatal("Final() inconsistent")
	}
}
