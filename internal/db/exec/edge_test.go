package exec

import (
	"testing"

	"tuffy/internal/db/storage"
	"tuffy/internal/db/tuple"
)

func TestSeqScanNextBeforeOpen(t *testing.T) {
	s := NewSeqScan(nil, intSchema("a"))
	if _, _, err := s.Next(); err == nil {
		t.Fatal("Next before Open accepted")
	}
}

// The test source rewinds on Open, as TestNestedLoopJoinReopensInner needs.
func TestValuesReopenRewinds(t *testing.T) {
	v := NewValues(intSchema("a"), intRows([]int64{1}, []int64{2}))
	for pass := 0; pass < 3; pass++ {
		rows, err := Collect(v)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 2 {
			t.Fatalf("pass %d: rows = %v", pass, rows)
		}
	}
}

func TestNestedLoopJoinReopensInner(t *testing.T) {
	// NLJ must re-Open the inner side per outer row; Values rewinds on
	// Open, so a 3x2 cross join sees the inner twice.
	l := NewValues(intSchema("a"), intRows([]int64{1}, []int64{2}, []int64{3}))
	r := NewValues(intSchema("b"), intRows([]int64{10}, []int64{20}))
	rows, err := Collect(NewNestedLoopJoin(l, r, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("cross join = %d rows, want 6", len(rows))
	}
}

func TestProjectArityMismatch(t *testing.T) {
	v := NewValues(intSchema("a"), nil)
	if _, err := NewProject(v, []Expr{ColRef{Idx: 0}}, []string{"x", "y"}); err == nil {
		t.Fatal("name/expr count mismatch accepted")
	}
}

func TestProjectColumnOutOfRange(t *testing.T) {
	v := NewValues(intSchema("a"), intRows([]int64{1}))
	p, err := NewProject(v, []Expr{ColRef{Idx: 5}}, []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Open(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Next(); err == nil {
		t.Fatal("out-of-range column access accepted")
	}
	p.Close()
}

func TestSortMultiColumn(t *testing.T) {
	v := NewValues(intSchema("a", "b"), intRows(
		[]int64{2, 1}, []int64{1, 2}, []int64{1, 1}, []int64{2, 0}))
	rows, err := Collect(NewSort(v, []int{0, 1}))
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]int64{{1, 1}, {1, 2}, {2, 0}, {2, 1}}
	for i, w := range want {
		if rows[i][0].I != w[0] || rows[i][1].I != w[1] {
			t.Fatalf("row %d = %v, want %v", i, rows[i], w)
		}
	}
}

func TestHashJoinEmptyBuildSide(t *testing.T) {
	l := NewValues(intSchema("a"), intRows([]int64{1}))
	r := NewValues(intSchema("b"), nil)
	rows, err := Collect(NewHashJoin(l, r, []int{0}, []int{0}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("rows = %v", rows)
	}
}

// A hash-range restricted SeqScan splits a heap into Mod disjoint parts
// whose union is the unrestricted scan, in heap order within each part; a
// restriction on a column the schema lacks fails at Open.
func TestSeqScanHashRange(t *testing.T) {
	sch := intSchema("k", "v")
	heap := storage.NewHeapFile(storage.NewBufferPool(storage.NewMemDisk(), 16), 1)
	for i := int64(0); i < 300; i++ {
		rec, err := tuple.Encode(sch, tuple.Row{tuple.I64(i % 37), tuple.I64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := heap.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	full, err := Collect(NewSeqScan(heap, sch))
	if err != nil {
		t.Fatal(err)
	}
	const mod = 5
	seen := make(map[int64]bool)
	for rem := uint32(0); rem < mod; rem++ {
		part, err := Collect(&SeqScan{Heap: heap, Sch: sch, Col: 0, Mod: mod, Rem: rem})
		if err != nil {
			t.Fatal(err)
		}
		last := int64(-1)
		for _, r := range part {
			if uint32(HashValue(r[0])%mod) != rem || seen[r[1].I] || r[1].I <= last {
				t.Fatalf("rem %d: row %v misplaced, repeated or out of heap order", rem, r)
			}
			seen[r[1].I], last = true, r[1].I
		}
	}
	if len(seen) != len(full) {
		t.Fatalf("parts cover %d rows, full scan %d", len(seen), len(full))
	}
	if _, err := Collect(&SeqScan{Heap: heap, Sch: sch, Col: 2, Mod: mod}); err == nil {
		t.Fatal("hash range on a missing column accepted")
	}
}
