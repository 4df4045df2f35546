package plan

import (
	"fmt"
	"strings"
	"testing"

	"tuffy/internal/db/exec"
	"tuffy/internal/db/tuple"
)

// memTable is an in-memory TableMeta for planner tests.
type memTable struct {
	sch      tuple.Schema
	rows     []tuple.Row
	distinct []int64
}

func (m *memTable) Schema() tuple.Schema { return m.sch }
func (m *memTable) RowCount() int64      { return int64(len(m.rows)) }
func (m *memTable) DistinctCount(col int) int64 {
	if col < len(m.distinct) {
		return m.distinct[col]
	}
	return int64(len(m.rows))
}
func (m *memTable) NewScan() exec.Iterator { return &rowsIter{sch: m.sch, rows: m.rows} }

// rowsIter streams a fixed row set and rewinds on Open.
type rowsIter struct {
	sch  tuple.Schema
	rows []tuple.Row
	i    int
}

func (r *rowsIter) Open() error          { r.i = 0; return nil }
func (r *rowsIter) Close() error         { return nil }
func (r *rowsIter) Schema() tuple.Schema { return r.sch }
func (r *rowsIter) Next() (tuple.Row, bool, error) {
	if r.i >= len(r.rows) {
		return nil, false, nil
	}
	r.i++
	return r.rows[r.i-1], true, nil
}

// collect drains it, cloning each row.
func collect(it exec.Iterator) ([]tuple.Row, error) {
	if err := it.Open(); err != nil {
		return nil, err
	}
	defer it.Close()
	var out []tuple.Row
	for {
		row, ok, err := it.Next()
		if err != nil || !ok {
			return out, err
		}
		out = append(out, row.Clone())
	}
}

// proj lists qualified "alias.col" (or bare "col") references as a SELECT
// list.
func proj(refs ...string) []ProjItem {
	items := make([]ProjItem, len(refs))
	for i, r := range refs {
		if j := strings.IndexByte(r, '.'); j >= 0 {
			items[i].Col = ColOp(r[:j], r[j+1:])
		} else {
			items[i].Col = ColOp("", r)
		}
	}
	return items
}

type memCatalog map[string]*memTable

func (c memCatalog) TableMeta(name string) (TableMeta, bool) {
	t, ok := c[name]
	return t, ok
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

func testCatalog() memCatalog {
	return memCatalog{
		"small": &memTable{
			sch:      tuple.NewSchema(tuple.Col("k", tuple.TInt), tuple.Col("v", tuple.TInt)),
			rows:     intRows([]int64{1, 10}, []int64{2, 20}),
			distinct: []int64{2, 2},
		},
		"big": &memTable{
			sch: tuple.NewSchema(tuple.Col("k", tuple.TInt), tuple.Col("w", tuple.TInt)),
			rows: intRows([]int64{1, 100}, []int64{1, 101}, []int64{2, 102},
				[]int64{3, 103}, []int64{4, 104}, []int64{5, 105}),
			distinct: []int64{5, 6},
		},
	}
}

func runStmt(t *testing.T, opts Options, stmt *SelectStmt) []tuple.Row {
	t.Helper()
	p := NewPlanner(testCatalog(), opts)
	it, err := p.Plan(stmt)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := collect(it)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func selectJoin() *SelectStmt {
	return &SelectStmt{
		Proj: []ProjItem{
			{Col: ColOp("small", "v")},
			{Col: ColOp("big", "w")},
		},
		From: []FromItem{{Table: "big"}, {Table: "small"}},
		Where: []Cond{
			{Op: exec.CmpEq, L: ColOp("small", "k"), R: ColOp("big", "k")},
		},
		OrderBy: []Operand{ColOp("", "w")},
	}
}

func TestPlanJoinAllAlgorithmsAgree(t *testing.T) {
	var want string
	for _, nlOnly := range []bool{false, true} {
		rows := runStmt(t, Options{NestedLoopOnly: nlOnly}, selectJoin())
		got := fmt.Sprint(rows)
		if want == "" {
			want = got
			// k=1 matches twice, k=2 once.
			if len(rows) != 3 {
				t.Fatalf("rows = %v", rows)
			}
			continue
		}
		if got != want {
			t.Fatalf("NestedLoopOnly=%v: %s != %s", nlOnly, got, want)
		}
	}
}

func TestPlanForceJoinOrderAgrees(t *testing.T) {
	a := runStmt(t, Options{}, selectJoin())
	b := runStmt(t, Options{ForceJoinOrder: true}, selectJoin())
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("force order changed results: %v vs %v", a, b)
	}
}

// The greedy order starts from the relation with the fewest estimated
// records, whatever the FROM order; ForceJoinOrder keeps the FROM order.
func TestPlanJoinOrderPicksSmallFirst(t *testing.T) {
	for _, tc := range []struct {
		opts Options
		want string
	}{
		{Options{}, "[small big]"},
		{Options{ForceJoinOrder: true}, "[big small]"},
	} {
		ex, err := NewPlanner(testCatalog(), tc.opts).EstimateSelect(selectJoin())
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(ex.JoinOrder); got != tc.want {
			t.Fatalf("%+v: join order = %s, want %s", tc.opts, got, tc.want)
		}
		if a := runStmt(t, tc.opts, selectJoin()); len(a) != 3 {
			t.Fatalf("%+v: rows = %v", tc.opts, a)
		}
	}
}

func TestPlanPushdownFilter(t *testing.T) {
	stmt := &SelectStmt{
		Proj:  []ProjItem{{Col: ColOp("", "w")}},
		From:  []FromItem{{Table: "big"}},
		Where: []Cond{{Op: exec.CmpNe, L: ColOp("", "w"), R: ValOp(tuple.I64(103))}},
	}
	rows := runStmt(t, Options{}, stmt)
	if len(rows) != 5 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestPlanUnknownTableAndColumn(t *testing.T) {
	p := NewPlanner(testCatalog(), Options{})
	_, err := p.Plan(&SelectStmt{
		Proj: proj("k"),
		From: []FromItem{{Table: "absent"}},
	})
	if err == nil {
		t.Fatal("unknown table accepted")
	}
	_, err = p.Plan(&SelectStmt{
		Proj: []ProjItem{{Col: ColOp("", "nocol")}},
		From: []FromItem{{Table: "small"}},
	})
	if err == nil {
		t.Fatal("unknown column accepted")
	}
}

func TestPlanAmbiguousColumn(t *testing.T) {
	p := NewPlanner(testCatalog(), Options{})
	// "k" exists in both tables: unqualified use in WHERE must error.
	_, err := p.Plan(&SelectStmt{
		Proj: proj("small.v"),
		From: []FromItem{{Table: "small"}, {Table: "big"}},
		Where: []Cond{
			{Op: exec.CmpEq, L: ColOp("", "k"), R: ValOp(tuple.I64(1))},
		},
	})
	if err == nil {
		t.Fatal("ambiguous column accepted")
	}
}

func TestPlanDuplicateAlias(t *testing.T) {
	p := NewPlanner(testCatalog(), Options{})
	_, err := p.Plan(&SelectStmt{
		Proj: proj("small.k"),
		From: []FromItem{{Table: "small"}, {Table: "small"}},
	})
	if err == nil {
		t.Fatal("duplicate range variable accepted")
	}
}

func TestPlanCrossProductWhenNoCondition(t *testing.T) {
	stmt := &SelectStmt{
		Proj: proj("small.k", "small.v", "big.k", "big.w"),
		From: []FromItem{{Table: "small"}, {Table: "big"}},
	}
	rows := runStmt(t, Options{}, stmt)
	if len(rows) != 12 {
		t.Fatalf("cross product = %d rows, want 12", len(rows))
	}
}

func TestPlanSelfJoinQualifiedColumns(t *testing.T) {
	cat := testCatalog()
	p := NewPlanner(cat, Options{})
	it, err := p.Plan(&SelectStmt{
		Proj: []ProjItem{
			{Col: ColOp("a", "k")},
			{Col: ColOp("b", "w")},
		},
		From: []FromItem{{Table: "big", Alias: "a"}, {Table: "big", Alias: "b"}},
		Where: []Cond{
			{Op: exec.CmpEq, L: ColOp("a", "k"), R: ColOp("b", "k")},
			{Op: exec.CmpNe, L: ColOp("a", "w"), R: ColOp("b", "w")},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := collect(it)
	if err != nil {
		t.Fatal(err)
	}
	// Only k=1 has two rows: (100,101) and (101,100) differ in w.
	if len(rows) != 2 || rows[0][1].I != 101 || rows[1][1].I != 100 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestPlanConstantCondition(t *testing.T) {
	stmt := &SelectStmt{
		Proj:  proj("k", "v"),
		From:  []FromItem{{Table: "small"}},
		Where: []Cond{{Op: exec.CmpEq, L: ValOp(tuple.I64(1)), R: ValOp(tuple.I64(2))}},
	}
	rows := runStmt(t, Options{}, stmt)
	if len(rows) != 0 {
		t.Fatalf("1=2 should filter everything: %v", rows)
	}
}

// A literal operand in the SELECT list projects a constant column (the AST
// allows it; the SQL dialect never writes one).
func TestPlanProjConstant(t *testing.T) {
	stmt := &SelectStmt{
		Proj: []ProjItem{
			{Col: ValOp(tuple.I64(7)), Alias: "seven"},
			{Col: ColOp("", "k")},
		},
		From: []FromItem{{Table: "small"}},
	}
	rows := runStmt(t, Options{}, stmt)
	if len(rows) != 2 || rows[0][0].I != 7 || rows[1][0].I != 7 {
		t.Fatalf("rows = %v", rows)
	}
}
