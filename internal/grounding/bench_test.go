package grounding

// Per-layer microbenchmarks for the grounder. CI runs them with
// -benchtime 1x as a smoke test; wall-clock claims are judged by benchmark/,
// these say which part of a ground or a re-ground moved.

import (
	"context"
	"runtime"
	"testing"

	"tuffy/internal/datagen"
	"tuffy/internal/db"
	"tuffy/internal/mln"
)

var benchDatasets = []struct {
	name string
	gen  func() *datagen.Dataset
	pred string // evidence the re-ground benchmarks change
}{
	{"ie", func() *datagen.Dataset { return datagen.IE(datagen.IEConfig{Chains: 2000, Seed: 12}) }, "hint"},
	{"er", func() *datagen.Dataset { return datagen.ER(datagen.ERConfig{Records: 40, Groups: 10, Seed: 3}) }, "simHigh"},
	{"rc", func() *datagen.Dataset {
		return datagen.RC(datagen.RCConfig{Papers: 1200, Authors: 500, Categories: 8, Clusters: 200, Seed: 7})
	}, "refers"},
}

var benchSink *Result

func benchTables(b *testing.B, ds *datagen.Dataset) *TableSet {
	b.Helper()
	ts, err := BuildTables(db.Open(db.Config{}), ds.Prog, ds.Ev.Clone())
	if err != nil {
		b.Fatal(err)
	}
	return ts
}

func benchGround(b *testing.B, ts *TableSet) (*Incremental, *Result) {
	b.Helper()
	inc, res, err := NewIncremental(context.Background(), ts, Options{})
	if err != nil {
		b.Fatal(err)
	}
	return inc, res
}

func heapAfterGC() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// BenchmarkGroundCold is one cold ground: predicate tables plus
// NewIncremental. retained-B/raw is what the grounder keeps resident per raw
// grounding once the Result is dropped: HeapAlloc after a GC with only the
// Incremental live, minus HeapAlloc with only its tables live.
func BenchmarkGroundCold(b *testing.B) {
	for _, bd := range benchDatasets {
		b.Run(bd.name, func(b *testing.B) {
			ds := bd.gen()
			b.ReportAllocs()
			for b.Loop() {
				_, benchSink = benchGround(b, benchTables(b, ds))
			}
			b.StopTimer()
			benchSink = nil
			ts := benchTables(b, ds)
			before := heapAfterGC()
			inc, raws := func() (*Incremental, int) {
				inc, res := benchGround(b, ts)
				return inc, res.Stats.NumGroundedRaw
			}()
			b.ReportMetric(float64(heapAfterGC()-before)/float64(raws), "retained-B/raw")
			runtime.KeepAlive(inc)
		})
	}
}

// BenchmarkBuildTables loads the predicate relations and the atom registry
// of IE and RC. resident-B/atom is what they keep resident per registered
// atom: HeapAlloc after a GC with only the TableSet live, minus HeapAlloc
// before it was built, over the registered atoms.
func BenchmarkBuildTables(b *testing.B) {
	for _, bd := range benchDatasets {
		if bd.name == "er" {
			continue
		}
		b.Run(bd.name, func(b *testing.B) {
			ds := bd.gen()
			b.ReportAllocs()
			for b.Loop() {
				benchTables(b, ds)
			}
			b.StopTimer()
			before := heapAfterGC()
			ts := benchTables(b, ds)
			b.ReportMetric(float64(heapAfterGC()-before)/float64(ts.NumAtoms()), "resident-B/atom")
			runtime.KeepAlive(ts)
		})
	}
}

// BenchmarkFold is the cold fold alone: a grounded Incremental's retained
// raw sets into the canonical Result.
func BenchmarkFold(b *testing.B) {
	for _, bd := range benchDatasets {
		b.Run(bd.name, func(b *testing.B) {
			ts := benchTables(b, bd.gen())
			inc, _ := benchGround(b, ts)
			b.ReportAllocs()
			for b.Loop() {
				benchSink = foldRaws(ts, inc.perClause, Stats{})
			}
		})
	}
}

// applyAndReground is one evidence update as the engine runs it.
func applyAndReground(b *testing.B, inc *Incremental, delta mln.Delta) mln.Delta {
	b.Helper()
	undo, err := inc.TS.ApplyDelta(delta)
	if err != nil {
		b.Fatal(err)
	}
	if benchSink, _, _, err = inc.Reground(context.Background(), delta.Preds()); err != nil {
		b.Fatal(err)
	}
	return undo.Inverse()
}

// BenchmarkReground is one update after another: the same 20-op delta and
// its inverse, alternating, each re-running the changed clauses' SQL and
// re-folding every retained raw.
func BenchmarkReground(b *testing.B) {
	for _, bd := range benchDatasets {
		b.Run(bd.name, func(b *testing.B) {
			ds := bd.gen()
			inc, _ := benchGround(b, benchTables(b, ds))
			delta := applyAndReground(b, inc, datagen.RandomDelta(ds, bd.pred, 20, 99))
			b.ReportAllocs()
			for b.Loop() {
				delta = applyAndReground(b, inc, delta)
			}
		})
	}
}
