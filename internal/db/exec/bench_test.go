package exec

// Per-layer microbenchmarks for the executor. CI runs them with
// -benchtime 1x as a smoke test; they say which operator moved, benchmark/
// judges wall-clock.

import (
	"testing"

	"tuffy/internal/db/storage"
	"tuffy/internal/db/tuple"
)

// benchHeap stores n rows of (id, id%keys, id%7, 0) — the shape of a
// predicate table: an atom id, arguments and a truth column.
func benchHeap(b *testing.B, n, keys int) (*storage.HeapFile, tuple.Schema) {
	b.Helper()
	sch := intSchema("aid", "a0", "a1", "truth")
	heap := storage.NewHeapFile(storage.NewBufferPool(storage.NewMemDisk(), 4096), 1)
	recs := make([][]byte, n)
	for i := range recs {
		rec, err := tuple.Encode(sch, tuple.Row{tuple.I64(int64(i)), tuple.I64(int64(i % keys)), tuple.I64(int64(i % 7)), tuple.I64(0)})
		if err != nil {
			b.Fatal(err)
		}
		recs[i] = rec
	}
	if _, err := heap.InsertBatch(recs); err != nil {
		b.Fatal(err)
	}
	return heap, sch
}

// drain runs it to the end and returns how many rows it produced.
func drain(b *testing.B, it Iterator) int {
	b.Helper()
	if err := it.Open(); err != nil {
		b.Fatal(err)
	}
	n := 0
	for {
		_, ok, err := it.Next()
		if err != nil {
			b.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	if err := it.Close(); err != nil {
		b.Fatal(err)
	}
	return n
}

// BenchmarkSeqScan decodes a 50 000-row, four-column table through the
// buffer pool.
func BenchmarkSeqScan(b *testing.B) {
	heap, sch := benchHeap(b, 50000, 1000)
	b.ReportAllocs()
	for b.Loop() {
		drain(b, NewSeqScan(heap, sch))
	}
}

// BenchmarkHashJoin joins two 20 000-row tables on a column with 5 000
// distinct values: a build of 20 000 rows and 80 000 output rows.
func BenchmarkHashJoin(b *testing.B) {
	lheap, sch := benchHeap(b, 20000, 5000)
	rheap, _ := benchHeap(b, 20000, 5000)
	b.ReportAllocs()
	for b.Loop() {
		if n := drain(b, NewHashJoin(NewSeqScan(lheap, sch), NewSeqScan(rheap, sch), []int{1}, []int{1}, nil)); n != 80000 {
			b.Fatalf("join produced %d rows", n)
		}
	}
}

// BenchmarkNestedLoopJoin is Table 6's lesion path: the same equi-join as
// BenchmarkHashJoin, with the inner side re-scanned for every outer row, on
// a 1 000-row outer and a 2 000-row inner table over 500 key values (2
// million pairs tested, 4 000 output rows).
func BenchmarkNestedLoopJoin(b *testing.B) {
	lheap, sch := benchHeap(b, 1000, 500)
	rheap, _ := benchHeap(b, 2000, 500)
	on := Cmp{CmpEq, ColRef{Idx: 1}, ColRef{Idx: sch.Arity() + 1}}
	b.ReportAllocs()
	for b.Loop() {
		if n := drain(b, NewNestedLoopJoin(NewSeqScan(lheap, sch), NewSeqScan(rheap, sch), on)); n != 4000 {
			b.Fatalf("join produced %d rows", n)
		}
	}
}
