package grounding

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tuffy/internal/datagen"
	"tuffy/internal/db"
	"tuffy/internal/db/storage"
	"tuffy/internal/db/tuple"
)

var updatePlans = flag.Bool("update-plans", false, "rewrite testdata/plans.golden")

// The catalog statistics the planner reads are exact, and every grounding
// plan is pinned: on IE, RC, ER and LP at the benchmark's sizes, each
// predicate column's DistinctCount equals the size of a set of its values
// keyed by tuple.EncodeKey, and each clause's SQL and Explain (join order,
// access paths, root estimates) match testdata/plans.golden byte for byte.
// Regenerate the golden with -update-plans only when a plan is MEANT to
// change.
func TestColumnStatisticsAndPlansUnchanged(t *testing.T) {
	var out strings.Builder
	for _, ds := range []*datagen.Dataset{
		datagen.IE(datagen.IEConfig{Chains: 6000, Seed: 1}),
		datagen.RC(datagen.RCConfig{Papers: 1200, Authors: 500, Categories: 8, Clusters: 200, Seed: 1}),
		datagen.ER(datagen.ERConfig{Records: 60, Groups: 16, Seed: 1}),
		datagen.LP(datagen.LPConfig{Profs: 15, Students: 90, Courses: 60, Seed: 1}),
	} {
		ts, err := BuildTables(db.Open(db.Config{}), ds.Prog, ds.Ev)
		if err != nil {
			t.Fatal(err)
		}
		for _, pred := range ds.Prog.Preds {
			tab := ts.Table(pred)
			ref := make([]map[string]struct{}, tab.Schema().Arity())
			for col := range ref {
				ref[col] = make(map[string]struct{})
			}
			err := tab.ScanRows(func(_ storage.RecordID, row tuple.Row) error {
				for col := range ref {
					ref[col][tuple.EncodeKey(row, []int{col})] = struct{}{}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for col := range ref {
				if got, want := tab.DistinctCount(col), int64(len(ref[col])); got != want {
					t.Fatalf("%s %s col %d: DistinctCount %d, %d distinct values stored", ds.Name, pred.Name, col, got, want)
				}
			}
		}
		for _, c := range ds.Prog.Clauses {
			if sql, ex := compileAndEstimate(t, ts, c); ex != nil {
				fmt.Fprintf(&out, "%s: %s\n%s\n%+v\n\n", ds.Name, c.Source, sql, *ex)
			}
		}
	}
	path := filepath.Join("testdata", "plans.golden")
	if *updatePlans {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Fatalf("grounding plans differ from %s:\n%s", path, got)
	}
}
