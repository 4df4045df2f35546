package grounding

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tuffy/internal/db/sqlparse"
	"tuffy/internal/db/tuple"
	"tuffy/internal/mln"
	"tuffy/internal/mrf"
)

// engineSQL compiles every clause of prog (and, for an existential clause,
// its universal fallback, built as existentialFallback builds it) over
// empty evidence and returns the SELECTs with the TableSet they run on.
func engineSQL(t *testing.T, name, progSrc string) (*TableSet, []string) {
	t.Helper()
	ts := setup(t, progSrc, "")
	var out []string
	add := func(c *mln.Clause) *Compiled {
		comp, err := CompileClauseSQL(ts, c)
		if err != nil {
			t.Fatalf("%s: compile %s: %v", name, c.Source, err)
		}
		if !comp.Skip {
			out = append(out, comp.SQL)
		}
		return comp
	}
	for _, c := range ts.Prog.Clauses {
		comp := add(c)
		if len(c.Exist) == 0 || comp.Skip || len(comp.ULits) == 0 {
			continue
		}
		u := &mln.Clause{Weight: c.Weight, Source: c.Source + " [existential fallback]"}
		u.Lits = append(u.Lits, comp.ULits...)
		for _, pc := range comp.PostClosed {
			u.Lits = append(u.Lits, pc.Lit)
		}
		add(u)
	}
	return ts, out
}

// TestEngineDialect pins the SQL dialect internal/db speaks to exactly what
// the engine emits. Every grounding query of the four benchmark programs and
// of Figure 1 (RC's existential clause brings ORDER BY) parses, plans and
// runs; so do the UPDATE and DELETE shapes of incremental evidence updates
// and the clause store, and the comp_clauses SELECTs of the paper drivers.
// Every form the engine does not emit fails with an sql: or plan: error.
func TestEngineDialect(t *testing.T) {
	progs := map[string]string{"figure1": mln.Figure1Program}
	files, err := filepath.Glob(filepath.Join("..", "..", "benchmark", "programs", "*.mln"))
	if err != nil || len(files) != 4 {
		t.Fatalf("benchmark programs: %v, %v", files, err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		progs[filepath.Base(f)] = string(src)
	}
	orderBy := 0
	for name, src := range progs {
		ts, sqls := engineSQL(t, name, src)
		for _, sql := range sqls {
			if _, err := sqlparse.Parse(sql); err != nil {
				t.Fatalf("%s: %q does not parse: %v", name, sql, err)
			}
			if _, err := ts.DB.EstimateQuery(sql); err != nil {
				t.Fatalf("%s: %q does not plan: %v", name, sql, err)
			}
			if err := ts.DB.QueryEach(sql, nil, func(tuple.Row) error { return nil }); err != nil {
				t.Fatalf("%s: %q does not run: %v", name, sql, err)
			}
			if strings.Contains(sql, " ORDER BY ") {
				orderBy++
			}
		}
	}
	if orderBy == 0 {
		t.Fatal("no compiled query carries ORDER BY; the existential path went unchecked")
	}

	// The DML shapes: incremental.go's evidence updates and rollbacks,
	// mrf.Store's reload, and internal/bench's component loads.
	ts := setup(t, mln.Figure1Program, mln.Figure1Evidence)
	catPred, ok := ts.Prog.Predicate("cat")
	if !ok {
		t.Fatal("Figure 1 has no cat predicate")
	}
	cat := TableName(catPred)
	for _, sql := range []string{
		fmt.Sprintf("UPDATE %s SET truth = %d WHERE aid = %d", cat, TruthTrue, 1),
		fmt.Sprintf("DELETE FROM %s WHERE aid = %d", cat, 1),
	} {
		if _, err := ts.DB.Exec(sql); err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
	}
	m := mrf.FromClauses(3, []mrf.Clause{{Weight: 1.5, Lits: []mrf.Lit{1, -2}}})
	table := mrf.QueryTableName("mrf_dialect")
	for i := 0; i < 2; i++ { // the second Store issues DELETE FROM table
		if err := mrf.Store(m, ts.DB, table); err != nil {
			t.Fatal(err)
		}
	}
	comp, err := ts.DB.CreateTable("comp_clauses", tuple.NewSchema(
		tuple.Col("comp", tuple.TInt), tuple.Col("weight", tuple.TInt), tuple.Col("lits", tuple.TIntList)))
	if err != nil {
		t.Fatal(err)
	}
	if err := comp.InsertMany([]tuple.Row{{tuple.I64(0), tuple.I64(int64(math.Float64bits(2))), tuple.IntList([]int64{1, -3})}}); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"SELECT weight, lits FROM comp_clauses WHERE comp = 0",
		"SELECT weight, lits FROM comp_clauses",
	} {
		rows, err := ts.DB.Query(sql)
		if err != nil || len(rows.Data) != 1 || fmt.Sprint(rows.Data[0][1].List) != "[1 -3]" {
			t.Fatalf("%q: %v, %v", sql, rows, err)
		}
	}

	for _, sql := range []string{
		"CREATE TABLE x (a BIGINT)",
		"INSERT INTO comp_clauses VALUES (1, 2, 3)",
		"SELECT comp FROM comp_clauses GROUP BY comp",
		"SELECT COUNT(*) FROM comp_clauses",
		"SELECT DISTINCT comp FROM comp_clauses",
		"SELECT comp FROM comp_clauses LIMIT 1",
		"SELECT * FROM comp_clauses",
		"SELECT comp FROM comp_clauses WHERE comp = 'x'",
		"SELECT comp FROM comp_clauses WHERE comp < 1",
	} {
		// DISTINCT parses as a column named DISTINCT, which does not plan.
		if _, err := ts.DB.Query(sql); err == nil || !(strings.HasPrefix(err.Error(), "sql:") || strings.HasPrefix(err.Error(), "plan:")) {
			t.Errorf("Query(%q): got %v, want an sql: or plan: error", sql, err)
		}
		if _, err := ts.DB.Exec(sql); err == nil {
			t.Errorf("Exec(%q) succeeded", sql)
		}
	}
}
