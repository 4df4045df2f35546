package grounding

import (
	"reflect"
	"regexp"
	"testing"

	"tuffy/internal/datagen"
	"tuffy/internal/db"
	"tuffy/internal/db/plan"
	"tuffy/internal/mln"
)

// A recovered engine must plan its grounding queries exactly as the engine
// that wrote the snapshot did: BuildTables and RestoreTables(ExportAtoms())
// build the same catalog statistics, so every compiled clause gets the same
// join order, access paths and cost estimates. RC's category constant
// compiles to a column-equals-constant filter, the shape a constant-bound
// column index would have planned differently on one side only.
func TestRestoredTablesPlanLikeBuiltTables(t *testing.T) {
	for _, ds := range []*datagen.Dataset{
		datagen.RC(datagen.RCConfig{Seed: 7}),
		datagen.IE(datagen.IEConfig{Chains: 300, Seed: 12}),
	} {
		t.Run(ds.Name, func(t *testing.T) {
			built, err := BuildTables(db.Open(db.Config{}), ds.Prog, ds.Ev)
			if err != nil {
				t.Fatal(err)
			}
			atoms := built.ExportAtoms()
			restored, err := RestoreTables(db.Open(db.Config{}), ds.Prog, ds.Ev, atoms)
			if err != nil {
				t.Fatal(err)
			}

			for _, pred := range ds.Prog.Preds {
				b, r := built.Table(pred), restored.Table(pred)
				if b.RowCount() != r.RowCount() || b.Blocks() != r.Blocks() {
					t.Fatalf("%s: rows/blocks built %d/%d, restored %d/%d",
						pred.Name, b.RowCount(), b.Blocks(), r.RowCount(), r.Blocks())
				}
				for col := range b.Schema().Cols {
					if bd, rd := b.DistinctCount(col), r.DistinctCount(col); bd != rd {
						t.Fatalf("%s col %d: distinct built %d, restored %d", pred.Name, col, bd, rd)
					}
				}
			}

			constFilters := 0
			for _, c := range ds.Prog.Clauses {
				bSQL, bEx := compileAndEstimate(t, built, c)
				rSQL, rEx := compileAndEstimate(t, restored, c)
				if bSQL != rSQL {
					t.Fatalf("%s: SQL differs:\n built    %s\n restored %s", c.Source, bSQL, rSQL)
				}
				if !reflect.DeepEqual(bEx, rEx) {
					t.Fatalf("%s: plan differs:\n built    %+v\n restored %+v", c.Source, bEx, rEx)
				}
				if constFilter.MatchString(bSQL) {
					constFilters++
				}
			}
			if ds.Name == "RC" && constFilters == 0 {
				t.Fatal("no RC grounding query filters a column on a constant")
			}
		})
	}
}

// compileAndEstimate compiles c over ts and returns its SQL with the
// optimizer's Explain ("" and nil for a clause the compiler skips).
func compileAndEstimate(t *testing.T, ts *TableSet, c *mln.Clause) (string, *plan.Explain) {
	t.Helper()
	comp, err := CompileClauseSQL(ts, c)
	if err != nil {
		t.Fatalf("compile %s: %v", c.Source, err)
	}
	if comp.Skip {
		return "", nil
	}
	ex, err := ts.DB.EstimateQuery(comp.SQL)
	if err != nil {
		t.Fatalf("estimate %s: %v", comp.SQL, err)
	}
	return comp.SQL, ex
}

// constFilter matches a column-equals-constant filter in compiled SQL.
var constFilter = regexp.MustCompile(`\bt\d+\.a\d+ = \d+\b`)
