package plan

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"tuffy/internal/db/exec"
	"tuffy/internal/db/tuple"
)

// statTable extends memTable with a physical block count, a row-count
// override and a hash-range scan, so tests can steer the optimizer's cost
// estimates without materializing large tables.
type statTable struct {
	memTable
	blocks   int64
	rowCount int64 // stat override; the backing rows stay small
}

func (t *statTable) Blocks() int64 { return t.blocks }
func (t *statTable) RowCount() int64 {
	if t.rowCount > 0 {
		return t.rowCount
	}
	return t.memTable.RowCount()
}
func (t *statTable) NewRangeScan(col int, mod, rem uint32) exec.Iterator {
	var matched []tuple.Row
	for _, r := range t.rows {
		if uint32(exec.HashValue(r[col])%uint64(mod)) == rem {
			matched = append(matched, r)
		}
	}
	return &rowsIter{sch: t.sch, rows: matched}
}

// catalogOf resolves arbitrary TableMeta implementations by name.
type catalogOf map[string]TableMeta

func (c catalogOf) TableMeta(name string) (TableMeta, bool) {
	t, ok := c[name]
	return t, ok
}

// threeWayStmt joins a to b on k and a to c on j, projecting a.k.
func threeWayStmt() *SelectStmt {
	return &SelectStmt{
		Proj: []ProjItem{{Col: ColOp("a", "k")}},
		From: []FromItem{{Table: "a"}, {Table: "b"}, {Table: "c"}},
		Where: []Cond{
			{Op: exec.CmpEq, L: ColOp("a", "k"), R: ColOp("b", "k")},
			{Op: exec.CmpEq, L: ColOp("a", "j"), R: ColOp("c", "j")},
		},
	}
}

// TestJoinOrderFlipsWithDistinctStats pins the greedy join order to the
// distinct-value statistics: the estimated output of a ⋈ b is
// R(a)·R(b)/max(V(a.k), V(b.k)), so raising V(b.k) shrinks that step and
// must pull b forward, while lowering it must push b behind c.
func TestJoinOrderFlipsWithDistinctStats(t *testing.T) {
	mk := func(bDistinctK int64) catalogOf {
		sch2 := func(c1, c2 string) tuple.Schema {
			return tuple.NewSchema(tuple.Col(c1, tuple.TInt), tuple.Col(c2, tuple.TInt))
		}
		return catalogOf{
			// a: 10 rows, V(k)=10, V(j)=10 — the cheapest start.
			"a": &statTable{memTable: memTable{sch: sch2("k", "j"), distinct: []int64{10, 10}}, rowCount: 10, blocks: 1},
			// b: 100 rows joined on k; V(b.k) is the experiment's variable.
			"b": &statTable{memTable: memTable{sch: sch2("k", "x"), distinct: []int64{bDistinctK, 100}}, rowCount: 100, blocks: 2},
			// c: 100 rows joined on j with V(c.j)=20: step output 10·100/20=50.
			"c": &statTable{memTable: memTable{sch: sch2("j", "y"), distinct: []int64{20, 100}}, rowCount: 100, blocks: 2},
		}
	}
	for _, tc := range []struct {
		bDistinctK int64
		want       []string
	}{
		// V(b.k)=100: a⋈b estimates 10·100/100=10 rows < 50 — b joins first.
		{bDistinctK: 100, want: []string{"a", "b", "c"}},
		// V(b.k)=2: a⋈b estimates 10·100/10=100 rows > 50 — c joins first.
		{bDistinctK: 2, want: []string{"a", "c", "b"}},
	} {
		ex, err := NewPlanner(mk(tc.bDistinctK), Options{}).EstimateSelect(threeWayStmt())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ex.JoinOrder, tc.want) {
			t.Fatalf("V(b.k)=%d: join order = %v, want %v", tc.bDistinctK, ex.JoinOrder, tc.want)
		}
	}
	// The lesion keeps FROM order regardless of the stats.
	ex, err := NewPlanner(mk(100), Options{ForceJoinOrder: true}).EstimateSelect(threeWayStmt())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ex.JoinOrder, []string{"a", "b", "c"}) {
		t.Fatalf("forced join order = %v", ex.JoinOrder)
	}
}

// TestHashRangePartitionIsDisjointUnion checks the HashRange contract the
// parallel grounder depends on: the Mod parts of a query are pairwise
// disjoint and their union (merged in range order) is a permutation-free
// reordering of the unrestricted result — here compared as sorted multisets.
func TestHashRangePartitionIsDisjointUnion(t *testing.T) {
	var rows [][]int64
	for i := int64(0); i < 50; i++ {
		rows = append(rows, []int64{i % 17, i})
	}
	tab := &statTable{
		memTable: memTable{
			sch:      tuple.NewSchema(tuple.Col("k", tuple.TInt), tuple.Col("v", tuple.TInt)),
			rows:     intRows(rows...),
			distinct: []int64{17, 50},
		},
		blocks: 1,
	}
	cat := catalogOf{"t": tab}
	base := &SelectStmt{
		Proj: proj("k", "v"),
		From: []FromItem{{Table: "t"}},
	}
	full := collectSorted(t, cat, base)
	const mod = 4
	var merged []string
	seen := map[string]int{}
	for rem := uint32(0); rem < mod; rem++ {
		stmt := *base
		stmt.Ranges = []HashRange{{Table: "t", Col: "k", Mod: mod, Rem: rem}}
		ex, err := NewPlanner(cat, Options{}).EstimateSelect(&stmt)
		if err != nil {
			t.Fatal(err)
		}
		if got := ex.Access["t"]; got != "seqscan+range" {
			t.Fatalf("rem %d: access = %q, want seqscan+range", rem, got)
		}
		part := collectSorted(t, cat, &stmt)
		for _, r := range part {
			seen[r]++
			merged = append(merged, r)
		}
	}
	sort.Strings(merged)
	if !reflect.DeepEqual(merged, full) {
		t.Fatalf("union of ranges != full result:\n union %v\n full  %v", merged, full)
	}
	for r, n := range seen {
		if n != 1 {
			t.Fatalf("row %s appeared in %d ranges", r, n)
		}
	}
}

// TestHashRangeValidation rejects malformed range restrictions.
func TestHashRangeValidation(t *testing.T) {
	cat := testCatalog()
	for _, ranges := range [][]HashRange{
		{{Table: "small", Col: "nope", Mod: 2, Rem: 0}},
		{{Table: "absent", Col: "k", Mod: 2, Rem: 0}},
		{{Table: "small", Col: "k", Mod: 0, Rem: 0}},
		{{Table: "small", Col: "k", Mod: 2, Rem: 2}},
	} {
		stmt := &SelectStmt{
			Proj:   proj("k", "v"),
			From:   []FromItem{{Table: "small"}},
			Ranges: ranges,
		}
		if _, err := NewPlanner(cat, Options{}).Plan(stmt); err == nil {
			t.Fatalf("ranges %v accepted", ranges)
		}
	}
}

func collectSorted(t *testing.T, cat Catalog, stmt *SelectStmt) []string {
	t.Helper()
	it, err := NewPlanner(cat, Options{}).Plan(stmt)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := collect(it)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}
