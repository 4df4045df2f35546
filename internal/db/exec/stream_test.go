package exec

import (
	"math/rand"
	"slices"
	"testing"

	"tuffy/internal/db/storage"
	"tuffy/internal/db/tuple"
)

// listSchema is (id, k, lits): an atom id, a join key and a clause's
// literal list, the column types the grounding tables hold.
var listSchema = tuple.NewSchema(tuple.Col("id", tuple.TInt), tuple.Col("k", tuple.TInt), tuple.Col("lits", tuple.TIntList))

// newPool is a buffer pool of the given capacity over a fresh memory disk.
func newPool(pages int) *storage.BufferPool {
	return storage.NewBufferPool(storage.NewMemDisk(), pages)
}

// heapOf stores rows in a new heap file of pool, deleting every row whose
// position del selects (nil: none), and returns the file with the rows it
// still holds, in heap order.
func heapOf(t testing.TB, pool *storage.BufferPool, sch tuple.Schema, rows []tuple.Row, del func(i int) bool) (*storage.HeapFile, []tuple.Row) {
	t.Helper()
	heap := storage.NewHeapFile(pool, 1)
	recs := make([][]byte, len(rows))
	for i, r := range rows {
		rec, err := tuple.Encode(sch, r)
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = rec
	}
	rids, err := heap.InsertBatch(recs)
	if err != nil {
		t.Fatal(err)
	}
	var live []tuple.Row
	for i, rid := range rids {
		if del != nil && del(i) {
			if err := heap.Delete(rid); err != nil {
				t.Fatal(err)
			}
			continue
		}
		live = append(live, rows[i])
	}
	return heap, live
}

// listRows draws n listSchema rows whose lists vary in length (0 to 5), so
// a reused page buffer has to shrink and grow them.
func listRows(rng *rand.Rand, n, keys int) []tuple.Row {
	rows := make([]tuple.Row, n)
	for i := range rows {
		lits := make([]int64, rng.Intn(6))
		for j := range lits {
			lits[j] = rng.Int63n(1000) - 500
		}
		rows[i] = tuple.Row{tuple.I64(int64(i)), tuple.I64(int64(rng.Intn(keys))), tuple.IntList(lits)}
	}
	return rows
}

// heapScanRows decodes HeapFile.Scan's records: the rows a SeqScan must
// yield, in its order.
func heapScanRows(t *testing.T, heap *storage.HeapFile, sch tuple.Schema) []tuple.Row {
	t.Helper()
	var out []tuple.Row
	if err := heap.Scan(func(_ storage.RecordID, rec []byte) error {
		row, err := tuple.Decode(sch, rec)
		out = append(out, row)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func rowsEqual(a, b []tuple.Row) bool {
	return slices.EqualFunc(a, b, func(x, y tuple.Row) bool { return slices.EqualFunc(x, y, tuple.Value.Equal) })
}

// A streaming SeqScan over a multi-page table with tombstones yields exactly
// HeapFile.Scan's rows in the same order, with and without a scan cursor
// (a pool of 8 pages is smaller than four times the table; 4 096 is not),
// and rows handed out earlier from the same page stay intact until the
// scan moves to the next page.
func TestSeqScanMatchesHeapScan(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	rows := listRows(rng, 3000, 50)
	for _, poolPages := range []int{8, 4096} {
		pool := newPool(poolPages)
		heap, live := heapOf(t, pool, listSchema, rows, func(i int) bool { return i%7 == 3 || (i >= 700 && i < 1100) })
		if heap.NumPages() < 4 {
			t.Fatalf("table spans %d pages, want several", heap.NumPages())
		}
		want := heapScanRows(t, heap, listSchema)
		if !rowsEqual(want, live) {
			t.Fatal("HeapFile.Scan lost or reordered rows")
		}
		got, err := Collect(NewSeqScan(heap, listSchema))
		if err != nil {
			t.Fatal(err)
		}
		if !rowsEqual(got, want) {
			t.Fatalf("pool %d: SeqScan yields %d rows, HeapFile.Scan %d, or in another order", poolPages, len(got), len(want))
		}

		// Without cloning: every row of a page is checked once the page's
		// last row has been handed out.
		s := NewSeqScan(heap, listSchema)
		if err := s.Open(); err != nil {
			t.Fatal(err)
		}
		var page []tuple.Row
		seen := 0
		for {
			row, ok, err := s.Next()
			if err != nil {
				t.Fatal(err)
			}
			if ok && s.next < s.n {
				page = append(page, row)
				continue
			}
			if ok {
				page = append(page, row)
			}
			if !rowsEqual(page, want[seen:seen+len(page)]) {
				t.Fatalf("pool %d: rows %d..%d changed before the scan left their page", poolPages, seen, seen+len(page))
			}
			seen += len(page)
			page = page[:0]
			if !ok {
				break
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if seen != len(want) {
			t.Fatalf("pool %d: uncloned pass saw %d rows of %d", poolPages, seen, len(want))
		}
		if open := pool.Stats().ScansOpen; open != 0 {
			t.Fatalf("pool %d: %d scans open after Close", poolPages, open)
		}
	}
}

// A HashJoin whose probe and build sides both stream across several pages,
// with an integer-list key column, returns the nested-loop join's rows, and
// in the order of the string-keyed reference over the scanned inputs.
func TestHashJoinProbeStreamsAcrossPages(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	lrows := listRows(rng, 1800, 60)
	rrows := listRows(rng, 800, 60)
	// Lists of at most one element from a small domain: list keys match
	// often.
	for _, rows := range [][]tuple.Row{lrows, rrows} {
		for _, r := range rows {
			r[2] = tuple.IntList(r[2].List[:min(len(r[2].List), 1)])
			for j := range r[2].List {
				r[2].List[j] %= 40
			}
		}
	}
	lheap, _ := heapOf(t, newPool(8), listSchema, lrows, func(i int) bool { return i%9 == 0 })
	rheap, _ := heapOf(t, newPool(8), listSchema, rrows, func(i int) bool { return i%11 == 5 })
	if lheap.NumPages() < 3 || rheap.NumPages() < 3 {
		t.Fatalf("probe side spans %d pages and build side %d, want several", lheap.NumPages(), rheap.NumPages())
	}
	for _, keys := range [][]int{{1}, {2}, {1, 2}} {
		residual := Cmp{CmpNe, ColRef{Idx: 0}, ColRef{Idx: 3}}
		want, err := stringKeyedHashJoin(heapScanRows(t, lheap, listSchema), heapScanRows(t, rheap, listSchema), keys, keys, residual)
		if err != nil {
			t.Fatal(err)
		}
		hj, err := Collect(NewHashJoin(NewSeqScan(lheap, listSchema), NewSeqScan(rheap, listSchema), keys, keys, residual))
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 || !rowsEqual(hj, want) {
			t.Fatalf("keys %v: hash join gives %d rows, reference %d, or another order", keys, len(hj), len(want))
		}
		on := []Expr{residual}
		for _, k := range keys {
			on = append(on, Cmp{CmpEq, ColRef{Idx: k}, ColRef{Idx: 3 + k}})
		}
		nl, err := Collect(NewNestedLoopJoin(NewSeqScan(lheap, listSchema), NewSeqScan(rheap, listSchema), And{on}))
		if err != nil {
			t.Fatal(err)
		}
		if !sameMultiset(hj, nl) {
			t.Fatalf("keys %v: hash join %d rows, nested loops %d, or different ones", keys, len(hj), len(nl))
		}
	}
}

// A full scan allocates the same whether the table holds 1 000 or 50 000
// rows: one page's buffer, reused for every page (a scan that decodes each
// row into a fresh row allocates one per row).
func TestSeqScanAllocsIndependentOfRows(t *testing.T) {
	allocs := func(n int) float64 {
		rows := make([]tuple.Row, n)
		for i := range rows {
			rows[i] = tuple.Row{tuple.I64(int64(i)), tuple.I64(int64(i % 100)), tuple.IntList([]int64{int64(i), -1})}
		}
		heap, _ := heapOf(t, newPool(4096), listSchema, rows, nil)
		return testing.AllocsPerRun(5, func() {
			s := NewSeqScan(heap, listSchema)
			if err := s.Open(); err != nil {
				t.Fatal(err)
			}
			for {
				_, ok, err := s.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1000), allocs(50000)
	if small != large {
		t.Fatalf("a full scan allocates %v times over 1 000 rows and %v over 50 000", small, large)
	}
}
