package plan

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"tuffy/internal/db/exec"
	"tuffy/internal/db/tuple"
)

// refEval is the reference semantics of a SelectStmt without hash ranges:
// a nested loop over the FROM items' cross product in FROM order, keeping
// the combinations that satisfy every WHERE condition, projected to the
// SELECT list. It returns the result as a sorted multiset of printed rows.
func refEval(t *testing.T, cat catalogOf, stmt *SelectStmt) []string {
	t.Helper()
	env := make([]tuple.Row, len(stmt.From))
	value := func(o Operand) tuple.Value {
		if !o.IsCol {
			return o.Val
		}
		for i, f := range stmt.From {
			if f.Name() == o.Table {
				meta, _ := cat.TableMeta(f.Table)
				return env[i][meta.Schema().ColIndex(o.Col)]
			}
		}
		t.Fatalf("reference: unresolved operand %s", o)
		return tuple.Value{}
	}
	var out []string
	var loop func(i int)
	loop = func(i int) {
		if i == len(stmt.From) {
			for _, c := range stmt.Where {
				if value(c.L).Equal(value(c.R)) != (c.Op == exec.CmpEq) {
					return
				}
			}
			row := make(tuple.Row, len(stmt.Proj))
			for k, p := range stmt.Proj {
				row[k] = value(p.Col)
			}
			out = append(out, fmt.Sprint(row))
			return
		}
		meta, _ := cat.TableMeta(stmt.From[i].Table)
		rows := func() []tuple.Row {
			if st, ok := meta.(*statTable); ok {
				return st.rows
			}
			return meta.(*memTable).rows
		}()
		for _, r := range rows {
			env[i] = r
			loop(i + 1)
		}
	}
	loop(0)
	sort.Strings(out)
	return out
}

// randomQuery builds 2–4 integer tables over a small domain (so rows and
// join keys repeat), with randomized statistics so the optimizer's join
// order varies, and a SELECT over all of them with = and <> conditions,
// some against constants, ordered by its first output column.
func randomQuery(rng *rand.Rand) (catalogOf, *SelectStmt) {
	const domain = 4
	cat := catalogOf{}
	stmt := &SelectStmt{}
	var cols []Operand
	nTables := 2 + rng.Intn(3)
	for ti := 0; ti < nTables; ti++ {
		name := fmt.Sprintf("t%d", ti)
		arity := 1 + rng.Intn(3)
		var sch []tuple.Column
		distinct := make([]int64, arity)
		for c := 0; c < arity; c++ {
			sch = append(sch, tuple.Col(fmt.Sprintf("c%d", c), tuple.TInt))
			distinct[c] = 1 + rng.Int63n(20)
		}
		rows := make([]tuple.Row, rng.Intn(8))
		for i := range rows {
			rows[i] = make(tuple.Row, arity)
			for c := range rows[i] {
				rows[i][c] = tuple.I64(rng.Int63n(domain))
			}
		}
		st := &statTable{
			memTable: memTable{sch: tuple.NewSchema(sch...), rows: rows, distinct: distinct},
			blocks:   1 + rng.Int63n(10),
			rowCount: rng.Int63n(100),
		}
		cat[name] = st
		if rng.Intn(2) == 0 {
			cat[name] = &st.memTable // no range scan: ranges become filters
		}
		alias := fmt.Sprintf("r%d", ti)
		stmt.From = append(stmt.From, FromItem{Table: name, Alias: alias})
		for _, c := range sch {
			cols = append(cols, ColOp(alias, c.Name))
		}
	}
	rng.Shuffle(len(stmt.From), func(i, j int) { stmt.From[i], stmt.From[j] = stmt.From[j], stmt.From[i] })
	for n := rng.Intn(5); n > 0; n-- {
		c := Cond{Op: exec.CmpEq, L: cols[rng.Intn(len(cols))], R: cols[rng.Intn(len(cols))]}
		if rng.Intn(4) == 0 {
			c.Op = exec.CmpNe
		}
		if rng.Intn(3) == 0 {
			c.R = ValOp(tuple.I64(rng.Int63n(domain)))
		}
		stmt.Where = append(stmt.Where, c)
	}
	for k, n := 0, 1+rng.Intn(3); k < n; k++ {
		stmt.Proj = append(stmt.Proj, ProjItem{Col: cols[rng.Intn(len(cols))], Alias: fmt.Sprintf("p%d", k)})
	}
	stmt.OrderBy = []Operand{ColOp("", "p0")}
	return cat, stmt
}

// runSorted plans and runs stmt under opts, checks the rows come out in
// ORDER BY order, and returns them as a sorted multiset of printed rows.
func runSorted(t *testing.T, seed int64, cat catalogOf, opts Options, stmt *SelectStmt) []string {
	t.Helper()
	it, err := NewPlanner(cat, opts).Plan(stmt)
	if err != nil {
		t.Fatalf("seed %d %+v: plan: %v", seed, opts, err)
	}
	rows, err := collect(it)
	if err != nil {
		t.Fatalf("seed %d %+v: run: %v", seed, opts, err)
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		if i > 0 && rows[i-1][0].I > r[0].I {
			t.Fatalf("seed %d %+v: rows not ordered by p0: %v", seed, opts, rows)
		}
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

// TestPlannerMatchesNestedLoopReference is the planner differential: on
// random schemas and queries, every optimizer configuration (cost-based
// join order and hash joins, and each Table 6 lesion) returns exactly the
// reference evaluator's multiset, and splitting any one range variable into
// Mod hash ranges partitions that result without loss or duplication.
func TestPlannerMatchesNestedLoopReference(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cat, stmt := randomQuery(rng)
		want := refEval(t, cat, stmt)
		for _, opts := range []Options{{}, {ForceJoinOrder: true}, {NestedLoopOnly: true}} {
			if got := runSorted(t, seed, cat, opts, stmt); !slices.Equal(got, want) {
				t.Fatalf("seed %d %+v: result differs from reference:\n got  %v\n want %v", seed, opts, got, want)
			}
		}
		f := stmt.From[rng.Intn(len(stmt.From))]
		meta, _ := cat.TableMeta(f.Table)
		col := meta.Schema().Cols[rng.Intn(meta.Schema().Arity())].Name
		for _, mod := range []uint32{2, 3} {
			var union []string
			for rem := uint32(0); rem < mod; rem++ {
				part := *stmt
				part.Ranges = []HashRange{{Table: f.Name(), Col: col, Mod: mod, Rem: rem}}
				union = append(union, runSorted(t, seed, cat, Options{}, &part)...)
			}
			sort.Strings(union)
			if !slices.Equal(union, want) {
				t.Fatalf("seed %d: union of %s.%s mod %d ranges differs:\n got  %v\n want %v",
					seed, f.Name(), col, mod, union, want)
			}
		}
	}
}
