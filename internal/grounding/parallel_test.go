package grounding

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"tuffy/internal/datagen"
	"tuffy/internal/db"
)

// groundDataset builds fresh tables for ds and grounds with the given worker
// count.
func groundDataset(t *testing.T, ds *datagen.Dataset, workers int) (*TableSet, *Result) {
	t.Helper()
	d := db.Open(db.Config{})
	ts, err := BuildTables(d, ds.Prog, ds.Ev)
	if err != nil {
		t.Fatalf("%s tables: %v", ds.Name, err)
	}
	res, err := GroundBottomUp(context.Background(), ts, Options{Workers: workers})
	if err != nil {
		t.Fatalf("%s grounding (%d workers): %v", ds.Name, workers, err)
	}
	return ts, res
}

// assertIdentical requires two grounding results to be bit-identical: same
// clauses (weights, literals, order), same atom numbering, same stats.
// PeakBytes is exempt from exact equality: it measures the largest transient
// row buffer, which hash-range splitting legitimately shrinks (each range
// materializes a fraction of the clause's rows), so it must only not grow.
func assertIdentical(t *testing.T, name string, seq, par *Result) {
	t.Helper()
	if par.Stats.PeakBytes > seq.Stats.PeakBytes {
		t.Fatalf("%s: parallel PeakBytes grew: seq %d, par %d", name, seq.Stats.PeakBytes, par.Stats.PeakBytes)
	}
	seqStats, parStats := seq.Stats, par.Stats
	seqStats.PeakBytes, parStats.PeakBytes = 0, 0
	if !reflect.DeepEqual(seqStats, parStats) {
		t.Fatalf("%s: stats differ:\n seq %+v\n par %+v", name, seq.Stats, par.Stats)
	}
	if !reflect.DeepEqual(seq.TableAid, par.TableAid) {
		t.Fatalf("%s: atom numbering differs", name)
	}
	if !reflect.DeepEqual(seq.AtomID, par.AtomID) {
		t.Fatalf("%s: aid->atom map differs", name)
	}
	if len(seq.MRF.Clauses) != len(par.MRF.Clauses) {
		t.Fatalf("%s: clause counts differ: %d vs %d", name, len(seq.MRF.Clauses), len(par.MRF.Clauses))
	}
	for i := range seq.MRF.Clauses {
		if !reflect.DeepEqual(seq.MRF.Clauses[i], par.MRF.Clauses[i]) {
			t.Fatalf("%s: clause %d differs:\n seq %+v\n par %+v",
				name, i, seq.MRF.Clauses[i], par.MRF.Clauses[i])
		}
	}
	if !reflect.DeepEqual(seq.MRF.Atoms, par.MRF.Atoms) {
		t.Fatalf("%s: MRF atom registries differ", name)
	}
	if seq.MRF.FixedCost != par.MRF.FixedCost {
		t.Fatalf("%s: fixed cost differs: %v vs %v", name, seq.MRF.FixedCost, par.MRF.FixedCost)
	}
}

// exampleDatasets are the dataset configurations of the examples/ programs:
// entityres (ER), classify (RC), plus IE and LP covering the remaining
// example workloads.
func exampleDatasets() []*datagen.Dataset {
	return []*datagen.Dataset{
		datagen.ER(datagen.ERConfig{Records: 40, Groups: 10, Seed: 3}),                                // examples/entityres
		datagen.RC(datagen.RCConfig{Papers: 400, Authors: 160, Categories: 5, Clusters: 80, Seed: 7}), // examples/classify
		datagen.IE(datagen.IEConfig{Chains: 200, Seed: 12}),
		datagen.LP(datagen.LPConfig{Profs: 10, Students: 40, Courses: 24, Seed: 13}),
	}
}

// TestGroundBottomUpParallelDeterminism grounds each example workload with
// 1, 4 and 8 workers over independently built table sets and requires
// bit-identical results: the worker pool must not change the MRF, the atom
// numbering, or the statistics.
func TestGroundBottomUpParallelDeterminism(t *testing.T) {
	for _, ds := range exampleDatasets() {
		_, seq := groundDataset(t, ds, 1)
		for _, workers := range []int{4, 8} {
			_, par := groundDataset(t, ds, workers)
			assertIdentical(t, ds.Name, seq, par)
		}
	}
}

// TestGroundBottomUpParallelSharedTables grounds the same TableSet
// concurrently-reading with several worker counts; the read path of the
// engine must tolerate the concurrency and the outputs must match.
func TestGroundBottomUpParallelSharedTables(t *testing.T) {
	ds := datagen.ER(datagen.ERConfig{Records: 40, Groups: 10, Seed: 3})
	d := db.Open(db.Config{BufferPoolPages: 8}) // small pool: force eviction under concurrency
	ts, err := BuildTables(d, ds.Prog, ds.Ev)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := GroundBottomUp(context.Background(), ts, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		par, err := GroundBottomUp(context.Background(), ts, Options{Workers: workers})
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		assertIdentical(t, ds.Name, seq, par)
	}
}

// TestGroundBottomUpParallelWithClosure checks the closure path composes
// with the worker pool (closure runs after the deterministic merge, so it
// must see the same raw clause order).
func TestGroundBottomUpParallelWithClosure(t *testing.T) {
	ds := datagen.IE(datagen.IEConfig{Chains: 100, Seed: 5})
	d := db.Open(db.Config{})
	ts, err := BuildTables(d, ds.Prog, ds.Ev)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := GroundBottomUp(context.Background(), ts, Options{UseClosure: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := GroundBottomUp(context.Background(), ts, Options{UseClosure: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, ds.Name, seq, par)
}

// TestGroundBottomUpLesionBitIdentity grounds IE and RC (plus ER, the
// single-dominant-clause workload the hash-range planner exists for) at 1,
// 2, 4 and 8 workers against the sequential path, which never splits a
// clause, and requires every worker count to produce the same result bit
// for bit — split decisions and range merges must be invisible in the
// output.
func TestGroundBottomUpLesionBitIdentity(t *testing.T) {
	for _, ds := range []*datagen.Dataset{
		datagen.IE(datagen.IEConfig{Chains: 150, Seed: 21}),
		datagen.RC(datagen.RCConfig{Papers: 300, Authors: 120, Categories: 5, Clusters: 60, Seed: 22}),
		datagen.ER(datagen.ERConfig{Records: 30, Groups: 8, Seed: 23}),
	} {
		d := db.Open(db.Config{})
		ts, err := BuildTables(d, ds.Prog, ds.Ev)
		if err != nil {
			t.Fatalf("%s tables: %v", ds.Name, err)
		}
		seq, err := GroundBottomUp(context.Background(), ts, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 8} {
			par, err := GroundBottomUp(context.Background(), ts, Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s (%d workers): %v", ds.Name, workers, err)
			}
			assertIdentical(t, fmt.Sprintf("%s/%dw", ds.Name, workers), seq, par)
		}
	}
}

// TestGroundBottomUpParallelError checks that a failing clause reports the
// same (first-in-clause-order) error for every worker count.
func TestGroundBottomUpParallelError(t *testing.T) {
	ts := setup(t, `
*p(person, person)
q(person)
1 p(x, y) => q(x)
1 p(a, a)
`, `
p(A, B)
`)
	_, errSeq := GroundBottomUp(context.Background(), ts, Options{Workers: 1})
	if errSeq == nil {
		t.Fatal("expected sequential grounding error")
	}
	_, errPar := GroundBottomUp(context.Background(), ts, Options{Workers: 4})
	if errPar == nil {
		t.Fatal("expected parallel grounding error")
	}
	if errSeq.Error() != errPar.Error() {
		t.Fatalf("error mismatch:\n seq %v\n par %v", errSeq, errPar)
	}
}
