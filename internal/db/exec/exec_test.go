package exec

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"tuffy/internal/db/storage"
	"tuffy/internal/db/tuple"
)

func intSchema(names ...string) tuple.Schema {
	cols := make([]tuple.Column, len(names))
	for i, n := range names {
		cols[i] = tuple.Col(n, tuple.TInt)
	}
	return tuple.Schema{Cols: cols}
}

func intRows(vals ...[]int64) []tuple.Row {
	rows := make([]tuple.Row, len(vals))
	for i, v := range vals {
		r := make(tuple.Row, len(v))
		for j, x := range v {
			r[j] = tuple.I64(x)
		}
		rows[i] = r
	}
	return rows
}

// Values streams a fixed in-memory row set and rewinds on Open: the input
// every operator test reads from.
type Values struct {
	Sch  tuple.Schema
	Rows []tuple.Row
	idx  int
}

func NewValues(sch tuple.Schema, rows []tuple.Row) *Values {
	return &Values{Sch: sch, Rows: rows}
}

func (v *Values) Open() error { v.idx = 0; return nil }

func (v *Values) Next() (tuple.Row, bool, error) {
	if v.idx >= len(v.Rows) {
		return nil, false, nil
	}
	r := v.Rows[v.idx]
	v.idx++
	return r, true, nil
}

func (v *Values) Close() error { return nil }

func (v *Values) Schema() tuple.Schema { return v.Sch }

// Collect drains it and returns all rows (cloned). It Opens and Closes the
// iterator.
func Collect(it Iterator) ([]tuple.Row, error) {
	defer it.Close()
	if err := it.Open(); err != nil {
		return nil, err
	}
	var out []tuple.Row
	for {
		row, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, row.Clone())
	}
}

func TestSeqScanRoundTrip(t *testing.T) {
	disk := storage.NewMemDisk()
	pool := storage.NewBufferPool(disk, 16)
	heap := storage.NewHeapFile(pool, 1)
	sch := tuple.NewSchema(tuple.Col("id", tuple.TInt), tuple.Col("lits", tuple.TIntList))
	for i := 0; i < 1000; i++ {
		rec, err := tuple.Encode(sch, tuple.Row{tuple.I64(int64(i)), tuple.IntList([]int64{int64(i), -1})})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := heap.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := Collect(NewSeqScan(heap, sch))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1000 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[7][0].I != 7 || fmt.Sprint(rows[7][1].List) != "[7 -1]" {
		t.Fatalf("row 7 = %v", rows[7])
	}
}

func TestFilterAndProject(t *testing.T) {
	sch := intSchema("a", "b")
	vals := NewValues(sch, intRows([]int64{1, 10}, []int64{2, 20}, []int64{3, 30}))
	f := NewFilter(vals, Cmp{Op: CmpNe, L: ColRef{Idx: 0}, R: Const{tuple.I64(1)}})
	p, err := NewProject(f, []Expr{ColRef{Idx: 1, Name: "b"}}, []string{"b"})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][0].I != 20 || rows[1][0].I != 30 {
		t.Fatalf("rows = %v", rows)
	}
	if p.Schema().Cols[0].Name != "b" {
		t.Fatalf("schema = %v", p.Schema())
	}
}

func TestExprBooleans(t *testing.T) {
	row := tuple.Row{tuple.I64(5), tuple.IntList([]int64{1, 2})}
	list := func(xs ...int64) Const { return Const{tuple.IntList(xs)} }
	cases := []struct {
		e    Expr
		want bool
	}{
		{Cmp{CmpEq, ColRef{Idx: 0}, Const{tuple.I64(5)}}, true},
		{Cmp{CmpNe, ColRef{Idx: 0}, Const{tuple.I64(5)}}, false},
		{Cmp{CmpNe, ColRef{Idx: 0}, Const{tuple.I64(6)}}, true},
		{Cmp{CmpEq, ColRef{Idx: 1}, list(1, 2)}, true},
		{Cmp{CmpEq, ColRef{Idx: 1}, list(1)}, false},
		{And{[]Expr{Cmp{CmpEq, ColRef{Idx: 0}, Const{tuple.I64(5)}}, Cmp{CmpEq, ColRef{Idx: 1}, list(1, 2)}}}, true},
		{And{[]Expr{Cmp{CmpEq, ColRef{Idx: 0}, Const{tuple.I64(5)}}, Cmp{CmpNe, ColRef{Idx: 1}, list(1, 2)}}}, false},
		{And{}, true},
	}
	for i, c := range cases {
		got, err := EvalPred(c.e, row)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got != c.want {
			t.Fatalf("case %d (%s): got %v want %v", i, c.e, got, c.want)
		}
	}
}

func TestExprTypeMismatch(t *testing.T) {
	row := tuple.Row{tuple.I64(5)}
	_, err := Cmp{CmpEq, ColRef{Idx: 0}, Const{tuple.IntList([]int64{5})}}.Eval(row)
	if err == nil {
		t.Fatal("comparing int with list should fail")
	}
}

func joinInputs() (*Values, *Values) {
	left := NewValues(intSchema("l1", "l2"), intRows(
		[]int64{1, 100}, []int64{2, 200}, []int64{2, 201}, []int64{3, 300}))
	right := NewValues(intSchema("r1", "r2"), intRows(
		[]int64{2, 9000}, []int64{3, 9001}, []int64{3, 9002}, []int64{4, 9003}))
	return left, right
}

// want: l1=r1 matches: (2,200,2,9000),(2,201,2,9000),(3,300,3,9001),(3,300,3,9002)
func checkJoinResult(t *testing.T, rows []tuple.Row) {
	t.Helper()
	if len(rows) != 4 {
		t.Fatalf("join produced %d rows: %v", len(rows), rows)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i][1].I != rows[j][1].I {
			return rows[i][1].I < rows[j][1].I
		}
		return rows[i][3].I < rows[j][3].I
	})
	want := [][4]int64{
		{2, 200, 2, 9000},
		{2, 201, 2, 9000},
		{3, 300, 3, 9001},
		{3, 300, 3, 9002},
	}
	for i, w := range want {
		for c := 0; c < 4; c++ {
			if rows[i][c].I != w[c] {
				t.Fatalf("row %d = %v, want %v", i, rows[i], w)
			}
		}
	}
}

func TestNestedLoopJoin(t *testing.T) {
	l, r := joinInputs()
	j := NewNestedLoopJoin(l, r, Cmp{CmpEq, ColRef{Idx: 0}, ColRef{Idx: 2}})
	rows, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	checkJoinResult(t, rows)
}

func TestHashJoin(t *testing.T) {
	l, r := joinInputs()
	j := NewHashJoin(l, r, []int{0}, []int{0}, nil)
	rows, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	checkJoinResult(t, rows)
}

func TestJoinAlgorithmsAgreeProperty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		nl, nr := r.Intn(30), r.Intn(30)
		lrows := make([]tuple.Row, nl)
		for i := range lrows {
			lrows[i] = tuple.Row{tuple.I64(int64(r.Intn(8))), tuple.I64(int64(i))}
		}
		rrows := make([]tuple.Row, nr)
		for i := range rrows {
			rrows[i] = tuple.Row{tuple.I64(int64(r.Intn(8))), tuple.I64(int64(1000 + i))}
		}
		mk := func() (Iterator, Iterator) {
			return NewValues(intSchema("lk", "lv"), lrows), NewValues(intSchema("rk", "rv"), rrows)
		}
		canon := func(rows []tuple.Row) []string {
			out := make([]string, len(rows))
			for i, row := range rows {
				out[i] = fmt.Sprint(row)
			}
			sort.Strings(out)
			return out
		}
		l1, r1 := mk()
		nlRows, err := Collect(NewNestedLoopJoin(l1, r1, Cmp{CmpEq, ColRef{Idx: 0}, ColRef{Idx: 2}}))
		if err != nil {
			t.Fatal(err)
		}
		l2, r2 := mk()
		hjRows, err := Collect(NewHashJoin(l2, r2, []int{0}, []int{0}, nil))
		if err != nil {
			t.Fatal(err)
		}
		if a, b := canon(nlRows), canon(hjRows); fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("trial %d: joins disagree:\nNL=%v\nHJ=%v", trial, a, b)
		}
	}
}

func TestSortStableAndOrdered(t *testing.T) {
	vals := NewValues(intSchema("k", "v"), intRows(
		[]int64{3, 1}, []int64{1, 2}, []int64{2, 3}, []int64{1, 4}))
	rows, err := Collect(NewSort(vals, []int{0}))
	if err != nil {
		t.Fatal(err)
	}
	keys := []int64{rows[0][0].I, rows[1][0].I, rows[2][0].I, rows[3][0].I}
	if fmt.Sprint(keys) != "[1 1 2 3]" {
		t.Fatalf("keys = %v", keys)
	}
	// stability: (1,2) before (1,4)
	if rows[0][1].I != 2 || rows[1][1].I != 4 {
		t.Fatalf("sort not stable: %v", rows)
	}
}

func TestHashJoinResidualPredicate(t *testing.T) {
	l, r := joinInputs()
	// keep only pairs where r2 is even
	j := NewHashJoin(l, r, []int{0}, []int{0},
		Cmp{CmpEq, ColRef{Idx: 3}, Const{tuple.I64(9000)}})
	rows, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("residual filter rows = %v", rows)
	}
}
