package sqlparse

import (
	"strings"
	"testing"

	"tuffy/internal/db/exec"
	"tuffy/internal/db/plan"
)

func parseSelect(t *testing.T, sql string) *plan.SelectStmt {
	t.Helper()
	stmt, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	sel, ok := stmt.(*plan.SelectStmt)
	if !ok {
		t.Fatalf("Parse(%q) = %T, want SelectStmt", sql, stmt)
	}
	return sel
}

// rejected asserts that sql is outside the dialect: Parse fails with an
// "sql:" error.
func rejected(t *testing.T, sqls ...string) {
	t.Helper()
	for _, sql := range sqls {
		if stmt, err := Parse(sql); err == nil || !strings.HasPrefix(err.Error(), "sql:") {
			t.Errorf("Parse(%q) = %v, %v; want an sql: error", sql, stmt, err)
		}
	}
}

// Tables are created through db.CreateTable, never through SQL.
func TestParseCreateTable(t *testing.T) {
	rejected(t, "CREATE TABLE r_cat (aid BIGINT, a0 BIGINT, truth BIGINT)")
}

// No column type is spelled in SQL, so no type list parses either.
func TestParseCreateTableTypes(t *testing.T) {
	rejected(t, "CREATE TABLE t (a INTEGER, b TEXT, c VARCHAR)", "CREATE TABLE t (a BLOB)")
}

// Rows are loaded through Table.InsertMany, never through SQL.
func TestParseInsertValues(t *testing.T) {
	rejected(t, "INSERT INTO t VALUES (1, 2)", "INSERT INTO t VALUES (1, 'x'), (2, 'it''s')")
}

func TestParseInsertSelect(t *testing.T) {
	rejected(t, "INSERT INTO dst SELECT a, b FROM src WHERE a = 0")
}

// The grounding query shape: qualified and aliased projections, aliased
// FROM items with and without AS, = and <> conditions, ORDER BY.
func TestParseSelectFull(t *testing.T) {
	sel := parseSelect(t, `
		SELECT t1.aid AS a, t2.truth
		FROM r1 t1, r2 AS t2
		WHERE t1.a0 = t2.a0 AND t1.truth <> 1 AND t2.aid = 10
		ORDER BY a, t2.truth`)
	if len(sel.Proj) != 2 || sel.Proj[0].Alias != "a" || sel.Proj[1].Col.String() != "t2.truth" {
		t.Fatalf("proj = %+v", sel.Proj)
	}
	if len(sel.From) != 2 || sel.From[0].Alias != "t1" || sel.From[1].Alias != "t2" {
		t.Fatalf("from = %+v", sel.From)
	}
	if len(sel.Where) != 3 {
		t.Fatalf("where = %+v", sel.Where)
	}
	if sel.Where[0].Op != exec.CmpEq || sel.Where[1].Op != exec.CmpNe || sel.Where[2].Op != exec.CmpEq {
		t.Fatalf("ops = %+v", sel.Where)
	}
	if sel.Where[2].R.IsCol || sel.Where[2].R.Val.I != 10 {
		t.Fatalf("literal = %+v", sel.Where[2].R)
	}
	if len(sel.OrderBy) != 2 || sel.OrderBy[0].Col != "a" || sel.OrderBy[1].Table != "t2" {
		t.Fatalf("order = %+v", sel.OrderBy)
	}
	// LIMIT is not a clause (DISTINCT would read as a column named
	// DISTINCT, which the planner then rejects).
	rejected(t, "SELECT a FROM t LIMIT 5", "SELECT a FROM t ORDER BY a LIMIT 1")
}

// Every projection names its columns.
func TestParseSelectStar(t *testing.T) {
	rejected(t, "SELECT * FROM t", "SELECT a, * FROM t")
}

// Aggregation and grouping are the caller's: neither parses.
func TestParseAggregates(t *testing.T) {
	rejected(t,
		"SELECT COUNT(*) FROM t",
		"SELECT g, SUM(v) FROM t GROUP BY g",
		"SELECT g, ARRAY_AGG(v) vs FROM t GROUP BY g",
		"SELECT g FROM t GROUP BY g")
}

func TestParseUpdateDelete(t *testing.T) {
	stmt, err := Parse("UPDATE atoms SET truth = 1 WHERE aid = 7")
	if err != nil {
		t.Fatal(err)
	}
	up := stmt.(*plan.UpdateStmt)
	if up.Table != "atoms" || up.Col != "truth" || up.Val.I != 1 || len(up.Where) != 1 {
		t.Fatalf("%+v", up)
	}
	stmt, err = Parse("DELETE FROM atoms WHERE aid <> 3")
	if err != nil {
		t.Fatal(err)
	}
	del := stmt.(*plan.DeleteStmt)
	if del.Table != "atoms" || len(del.Where) != 1 {
		t.Fatalf("%+v", del)
	}
	// WHERE-less forms.
	if _, err := Parse("DELETE FROM atoms"); err != nil {
		t.Fatal(err)
	}
	rejected(t, "UPDATE atoms SET truth = other", "UPDATE atoms SET truth = 'x'")
}

// Negative literals lex as numbers; comments are not part of the dialect.
func TestParseNegativeNumbersAndComments(t *testing.T) {
	sel := parseSelect(t, "SELECT a FROM t WHERE a = -5")
	if sel.Where[0].R.Val.I != -5 {
		t.Fatalf("negative literal = %+v", sel.Where[0].R)
	}
	rejected(t, "SELECT a FROM t WHERE a = -5 -- trailing comment")
}

// One statement per call, with no terminator.
func TestParseTrailingSemicolon(t *testing.T) {
	rejected(t, "SELECT a FROM t;")
}

func TestParseErrors(t *testing.T) {
	rejected(t,
		"",
		"SELEC a FROM t",
		"SELECT FROM t",
		"SELECT a",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t WHERE a ~ 1",
		"SELECT a FROM t WHERE a = ",
		"SELECT a FROM t WHERE a < 1",
		"SELECT a FROM t WHERE a <= 1",
		"SELECT a FROM t WHERE a > 1",
		"SELECT a FROM t WHERE a >= 1",
		"SELECT a FROM t WHERE a != 1",
		"SELECT a FROM t WHERE a = 'x'",
		"SELECT a FROM t WHERE a = 1.5",
		"SELECT a FROM t WHERE a = 99999999999999999999",
		"SELECT a FROM t ORDER a",
		"SELECT 1 FROM t",
		"SELECT a FROM r_smökes",
		"SELECT a FROM is-friend",
		"UPDATE t SET",
		"UPDATE t SET a",
		"UPDATE t SET a = ",
		"DELETE t",
		"SELECT a FROM t extra garbage ~",
		"SELECT 'unterminated FROM t",
		"SELECT a! FROM t",
	)
}

func TestParseKeywordCaseInsensitive(t *testing.T) {
	sel := parseSelect(t, "select a from t where a = 1 order by a")
	if len(sel.Where) != 1 || len(sel.OrderBy) != 1 {
		t.Fatalf("%+v", sel)
	}
}

func TestParseQualifiedStarNotSupported(t *testing.T) {
	// t.* is not in the grammar; document via error.
	rejected(t, "SELECT t.* FROM t")
}
