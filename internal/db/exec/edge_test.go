package exec

import (
	"math/rand"
	"testing"

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
// whose union is the unrestricted scan: each residue's rows are exactly the
// unrestricted scan's rows that hash into it, in the same order, on an
// integer and on a list column of a multi-page table with tombstones. A
// restriction on a column the schema lacks fails at Open.
func TestSeqScanHashRange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	heap, _ := heapOf(t, newPool(8), listSchema, listRows(rng, 2500, 40), func(i int) bool { return i%5 == 1 })
	full, err := Collect(NewSeqScan(heap, listSchema))
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []int{1, 2} {
		for _, mod := range []uint32{1, 3, 8} {
			total := 0
			for rem := uint32(0); rem < mod; rem++ {
				var want []tuple.Row
				for _, r := range full {
					if uint32(HashValue(r[col])%uint64(mod)) == rem {
						want = append(want, r)
					}
				}
				got, err := Collect(&SeqScan{Heap: heap, Sch: listSchema, Col: col, Mod: mod, Rem: rem})
				if err != nil {
					t.Fatal(err)
				}
				if !rowsEqual(got, want) {
					t.Fatalf("col %d, %d mod %d: %d rows, want %d (or in another order)", col, rem, mod, len(got), len(want))
				}
				total += len(got)
			}
			if total != len(full) {
				t.Fatalf("col %d mod %d: residues cover %d rows of %d", col, mod, total, len(full))
			}
		}
	}
	if _, err := Collect(&SeqScan{Heap: heap, Sch: listSchema, Col: 3, Mod: 5}); err == nil {
		t.Fatal("hash range on a missing column accepted")
	}
}
