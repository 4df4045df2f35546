package search

import (
	"context"
	"math"
	"math/rand"
	"slices"
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

// randomMRF draws nc clauses of width 1..3 over n atoms with weights in
// ±{1..4}; with hard set, about one clause in five is +Inf or -Inf instead.
func randomMRF(rng *rand.Rand, n, nc int, hard bool) *mrf.MRF {
	m := mrf.New(n)
	for i := 0; i < nc; i++ {
		width := 1 + rng.Intn(min(3, n))
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
		if hard && rng.Intn(5) == 0 {
			w = math.Inf(1)
		}
		if rng.Intn(3) == 0 {
			w = -w
		}
		_ = m.AddClause(w, lits...)
	}
	return m
}

// plantAllTrue rewrites m's hard clauses (and, with soft set, all of them,
// at positive weight) so that the all-true state satisfies them: a
// positive clause gets a positive literal, a negative one only negated
// literals.
func plantAllTrue(m *mrf.MRF, soft bool) {
	for i := range m.W {
		if soft {
			m.W[i] = math.Abs(m.W[i])
		} else if !m.IsHard(i) {
			continue
		}
		lits := m.ClauseLits(i)
		if m.W[i] < 0 {
			for j, l := range lits {
				if mrf.Pos(l) {
					lits[j] = -l
				}
			}
		} else if !slices.ContainsFunc(lits, mrf.Pos) {
			lits[0] = -lits[0]
		}
	}
}

// checkEngine compares every counter of e with a from-scratch evaluation
// of its state through mrf.Clause.ViolatedBy and MRF.Cost, never through
// the engine's own clause table: the violated set's membership and size,
// hardViol, softCost and the reported cost. It returns the state's guided
// cost (hard clauses at hardW), recomputed the same way.
func checkEngine(t *testing.T, e *engine, hardW float64) (guided float64) {
	t.Helper()
	m := e.m
	hardViol, softCost, nViol := 0, 0.0, 0
	for ci := range m.W {
		c := m.Clause(ci)
		if !c.ViolatedBy(e.state) {
			if e.violPos[ci] >= 0 {
				t.Fatalf("satisfied clause %d in viol set", ci)
			}
			continue
		}
		nViol++
		if e.violPos[ci] < 0 || e.viol[e.violPos[ci]] != int32(ci) {
			t.Fatalf("violated clause %d missing from viol set", ci)
		}
		if c.IsHard() {
			hardViol++
			guided += hardW
		} else {
			softCost += math.Abs(c.Weight)
			guided += math.Abs(c.Weight)
		}
	}
	if len(e.viol) != nViol {
		t.Fatalf("viol set size %d, want %d", len(e.viol), nViol)
	}
	if e.hardViol != hardViol {
		t.Fatalf("hardViol %d, want %d", e.hardViol, hardViol)
	}
	if math.Abs(e.softCost-softCost) > 1e-9 {
		t.Fatalf("softCost %v, want %v", e.softCost, softCost)
	}
	if got, want := e.reportedCost(), m.Cost(e.state); got != want && math.Abs(got-want) > 1e-9 {
		t.Fatalf("incremental cost %v != recomputed %v", got, want)
	}
	return guided
}

// The engine's incremental counters must match a from-scratch evaluation
// after arbitrary flip sequences, over soft, hard (+Inf and -Inf) and
// negative-weight clauses, and deltaCost must predict each flip's change
// of the guided cost recomputed from the MRF before and after the flip.
func TestEngineIncrementalCostProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const hardW = 1e7
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(12)
		m := randomMRF(rng, n, 1+rng.Intn(25), trial%2 == 1)
		e := testEngine(m, rng)
		guided := checkEngine(t, e, hardW)
		for step := 0; step < 50; step++ {
			a := mrf.AtomID(1 + rng.Intn(n))
			predicted := e.deltaCost(a)
			e.flip(a)
			before := guided
			guided = checkEngine(t, e, hardW)
			if math.Abs(guided-(before+predicted)) > 1e-9 {
				t.Fatalf("trial %d: deltaCost %v but the guided cost moved %v", trial, predicted, guided-before)
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
		for ci := range m.W {
			c := m.Clause(ci)
			if c.ViolatedBy(e.state) {
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

// One scratch searching a network at HardWeight 1e7, then a different
// network at SampleSAT's 1, then the first again answers each search
// exactly as a fresh scratch does: no clause-table row of one search
// survives into the next.
func TestScratchReuseRebuildsClauseTable(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(17))
	// Both networks' hard clauses hold in the all-true state, so every
	// search has a finite best state to compare; the second network's soft
	// clauses do too, so SampleSAT returns a state.
	big := randomMRF(rng, 12, 40, true)
	plantAllTrue(big, false)
	small := randomMRF(rng, 10, 12, true)
	plantAllTrue(small, true)
	opts := Options{MaxFlips: 50, MaxTries: 2, Seed: 5} // short: the best state depends on the path
	mcOpts := MCSATOptions{SampleSATFlips: 500}

	var reused Scratch
	walk := func(sc *Scratch, hardW float64) *Result {
		o := opts
		o.HardWeight = hardW
		return walkSAT(ctx, big, sc.index(big), o, sc)
	}
	sample := func(sc *Scratch) []bool {
		if s := sampleSAT(ctx, small, mcOpts, rand.New(rand.NewSource(3)), sc); s != nil {
			return append([]bool(nil), s...)
		}
		return nil
	}
	sameWalk := func(label string, hardW float64) {
		got := walk(&reused, hardW)
		var fresh Scratch
		want := walk(&fresh, hardW)
		if want.Best == nil || got.BestCost != want.BestCost || got.Flips != want.Flips || !slices.Equal(got.Best, want.Best) {
			t.Fatalf("%s: reused scratch cost %v flips %d, fresh %v flips %d", label, got.BestCost, got.Flips, want.BestCost, want.Flips)
		}
	}

	sameWalk("first walk", 1e7)
	got := sample(&reused)
	var fresh Scratch
	if want := sample(&fresh); want == nil || !slices.Equal(got, want) {
		t.Fatalf("SampleSAT on a reused scratch %v, fresh %v", got, want)
	}
	sameWalk("walk after SampleSAT", 1e7)
	// The same network again at another hard weight: the table follows
	// the search's weight, not only its network.
	sameWalk("walk at hard weight 1", 1)
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
