package sqlparse_test

import (
	"strings"
	"testing"

	"tuffy/internal/db"
	"tuffy/internal/db/sqlparse"
	"tuffy/internal/grounding"
	"tuffy/internal/mln"
)

// FuzzParse feeds arbitrary text to the SQL parser, seeded with the four
// statement shapes the engine issues: the grounding SELECTs CompileClauseSQL
// emits (Figure 1's, whose existential clause brings ORDER BY), the UPDATE
// and DELETE of incremental evidence updates, and the clause store's
// unconditional DELETE. Parse must never panic, and every rejection must be
// a typed "sql:" error.
func FuzzParse(f *testing.F) {
	prog, err := mln.ParseProgramString(mln.Figure1Program)
	if err != nil {
		f.Fatal(err)
	}
	ev, err := mln.ParseEvidenceString(prog, mln.Figure1Evidence)
	if err != nil {
		f.Fatal(err)
	}
	ts, err := grounding.BuildTables(db.Open(db.Config{}), prog, ev)
	if err != nil {
		f.Fatal(err)
	}
	for _, c := range prog.Clauses {
		comp, err := grounding.CompileClauseSQL(ts, c)
		if err != nil {
			f.Fatal(err)
		}
		if !comp.Skip {
			f.Add(comp.SQL)
		}
	}
	f.Add("UPDATE r3 SET truth = 1 WHERE aid = 42")
	f.Add("DELETE FROM r3 WHERE aid = 42")
	f.Add("DELETE FROM comp_clauses")
	f.Fuzz(func(t *testing.T, sql string) {
		if _, err := sqlparse.Parse(sql); err != nil && !strings.HasPrefix(err.Error(), "sql:") {
			t.Fatalf("Parse(%q): untyped error %v", sql, err)
		}
	})
}
