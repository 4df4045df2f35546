package search

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"
	"time"

	"tuffy/internal/datagen"
	"tuffy/internal/db"
	"tuffy/internal/mrf"
	"tuffy/internal/partition"
)

// cancelAfter returns a context that cancels itself after d.
func cancelAfter(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

// unsatisfiableMRF keeps WalkSAT busy forever: contradictory unit clauses
// on every atom mean the violated set never empties.
func unsatisfiableMRF(n int) *mrf.MRF {
	m := mrf.New(n)
	for a := 1; a <= n; a++ {
		_ = m.AddClause(1, mrf.Lit(a))
		_ = m.AddClause(1, -mrf.Lit(a))
	}
	return m
}

func TestWalkSATStopsOnCanceledContext(t *testing.T) {
	m := unsatisfiableMRF(50)
	ctx := cancelAfter(t, 30*time.Millisecond)
	start := time.Now()
	r := WalkSAT(ctx, m, Options{MaxFlips: math.MaxInt64 / 2, Seed: 1})
	if el := time.Since(start); el > time.Second {
		t.Fatalf("WalkSAT ran %v after cancel, want < 1s", el)
	}
	if r.Best == nil {
		t.Fatal("no best-so-far state")
	}
	if r.BestCost != m.Cost(r.Best) {
		t.Fatalf("best-so-far cost %v inconsistent with state (%v)", r.BestCost, m.Cost(r.Best))
	}
}

func TestMonolithicReturnsTypedCancelError(t *testing.T) {
	m := unsatisfiableMRF(50)
	ctx := cancelAfter(t, 20*time.Millisecond)
	res, err := Monolithic(ctx, m, Options{MaxFlips: math.MaxInt64 / 2, Seed: 2})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v should unwrap to the context cause", err)
	}
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %T, want *CanceledError", err)
	}
	if res == nil || res.Best == nil {
		t.Fatal("canceled result must carry the best-so-far state")
	}
}

// At Parallelism 1 the components run on the caller's goroutine, above it
// on workers; both stop before the first component here.
func TestComponentAwareCancelKeepsValidState(t *testing.T) {
	m := datagen.Example1(40)
	comps := m.Components(false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before any component runs
	for _, par := range []int{1, 2} {
		res, err := ComponentAware(ctx, m, comps, ComponentOptions{Base: Options{MaxFlips: 1000, Seed: 3}, Parallelism: par})
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("par %d: err = %v, want ErrCanceled", par, err)
		}
		if res == nil || res.Best == nil {
			t.Fatalf("par %d: no best-so-far state", par)
		}
		// Unstarted components stand at the all-false baseline; the reported
		// cost must match the stitched state exactly.
		if got := m.Cost(res.Best); got != res.BestCost {
			t.Fatalf("par %d: state cost %v != reported %v", par, got, res.BestCost)
		}
		if res.Flips != 0 {
			t.Fatalf("par %d: %d flips after cancellation", par, res.Flips)
		}
	}
}

func TestGaussSeidelCancelReturnsBestSoFar(t *testing.T) {
	m, beta := gsTestMRF()
	pt := partition.Algorithm3(m, beta)
	if pt.NumCut() == 0 {
		t.Fatal("workload must cut clauses")
	}
	ctx := cancelAfter(t, 20*time.Millisecond)
	start := time.Now()
	res, err := GaussSeidel(ctx, pt, GaussSeidelOptions{
		Base:   Options{MaxFlips: math.MaxInt64 / 4, Seed: 5},
		Rounds: 1000,
	})
	if el := time.Since(start); el > time.Second {
		t.Fatalf("GaussSeidel ran %v after cancel", el)
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if res == nil || res.Best == nil {
		t.Fatal("no best-so-far state")
	}
	if len(res.Best) != m.NumAtoms+1 {
		t.Fatalf("best state has %d slots, want %d", len(res.Best), m.NumAtoms+1)
	}
}

// gsTestMRF builds two internally-chained blocks joined by one low-weight
// bridge, with contradictory unit clauses so partition searches never
// converge (the cancel has something to stop). Beta admits one block but
// not both, so the bridge is cut.
func gsTestMRF() (*mrf.MRF, int) {
	const atomsPer = 20
	m := mrf.New(2 * atomsPer)
	for b := 0; b < 2; b++ {
		base := b * atomsPer
		for i := 0; i < atomsPer; i++ {
			a := mrf.AtomID(base + i + 1)
			_ = m.AddClause(1, a)
			_ = m.AddClause(1, -a)
			if i > 0 {
				_ = m.AddClause(2, -mrf.Lit(base+i), a) // equality chain
				_ = m.AddClause(2, mrf.Lit(base+i), -a)
			}
		}
	}
	_ = m.AddClause(0.5, mrf.AtomID(atomsPer), mrf.AtomID(atomsPer+1)) // bridge
	// One block: atoms + unit lits + chain lits, plus slack for the bridge.
	return m, atomsPer + 2*atomsPer + 4*(atomsPer-1) + 4
}

func TestRDBMSWalkSATCancelDropsHelperTables(t *testing.T) {
	m := unsatisfiableMRF(300)
	d := storeMRF(t, m, db.Config{})
	before := len(d.TableNames())
	ctx := cancelAfter(t, 20*time.Millisecond)
	start := time.Now()
	res, err := RDBMSWalkSAT(ctx, d, "clauses", m.NumAtoms, Options{MaxFlips: math.MaxInt64 / 4, Seed: 7})
	if el := time.Since(start); el > time.Second {
		t.Fatalf("RDBMSWalkSAT ran %v after cancel", el)
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if res == nil || res.Best == nil {
		t.Fatal("no best-so-far state")
	}
	if after := len(d.TableNames()); after != before {
		t.Fatalf("catalog grew from %d to %d tables: helper tables leaked", before, after)
	}
}

func TestRDBMSWalkSATScanCancel(t *testing.T) {
	m := unsatisfiableMRF(300)
	d := storeMRF(t, m, db.Config{})
	ctx := cancelAfter(t, 20*time.Millisecond)
	res, err := RDBMSWalkSATScan(ctx, d, "clauses", m.NumAtoms, Options{MaxFlips: math.MaxInt64 / 4, Seed: 8})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if res == nil || res.Best == nil {
		t.Fatal("no best-so-far state")
	}
}

func TestMCSATCancelReportsPartialMarginals(t *testing.T) {
	m := datagen.Example1(20)
	ctx := cancelAfter(t, 30*time.Millisecond)
	probs, err := MCSAT(ctx, m, MCSATOptions{Samples: math.MaxInt32, BurnIn: 0, Seed: 9})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if len(probs) != m.NumAtoms+1 {
		t.Fatalf("probs len %d, want %d", len(probs), m.NumAtoms+1)
	}
	for a, p := range probs {
		if p < 0 || p > 1 {
			t.Fatalf("prob[%d] = %v out of range", a, p)
		}
	}
}

func TestGaussMCSATCancel(t *testing.T) {
	m, beta := gsTestMRF()
	pt := partition.Algorithm3(m, beta)
	ctx := cancelAfter(t, 30*time.Millisecond)
	probs, err := GaussMCSAT(ctx, pt, MCSATOptions{Samples: math.MaxInt32, BurnIn: 0, Seed: 10}, 2)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if len(probs) != m.NumAtoms+1 {
		t.Fatalf("probs len %d, want %d", len(probs), m.NumAtoms+1)
	}
}

func TestMCSATComponentsCancel(t *testing.T) {
	m := datagen.Example1(20)
	comps := m.Components(false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, par := range []int{1, 2} {
		probs, err := MCSATComponents(ctx, m, comps, MCSATOptions{Samples: 10, Seed: 11}, par)
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("par %d: err = %v, want ErrCanceled", par, err)
		}
		if len(probs) != m.NumAtoms+1 {
			t.Fatalf("par %d: probs len %d, want %d", par, len(probs), m.NumAtoms+1)
		}
	}
}

// eachComponent at parallelism 1 runs the components in index order with
// one Scratch, and starts none after a cancellation.
func TestEachComponentSequentialStopsAtCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var got []int
	var first *Scratch
	eachComponent(ctx, 10, 1, func(idx int, sc *Scratch) {
		got = append(got, idx)
		if first == nil {
			first = sc
		} else if sc != first {
			t.Errorf("component %d got a second Scratch", idx)
		}
		if idx == 3 {
			cancel()
		}
	})
	if want := []int{0, 1, 2, 3}; !slices.Equal(got, want) {
		t.Fatalf("ran %v, want %v", got, want)
	}
}
