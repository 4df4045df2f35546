package db

import (
	"math"
	"math/rand"
	"testing"

	"tuffy/internal/db/storage"
	"tuffy/internal/db/tuple"
)

// TestDistinctCountThroughWritePaths drives a table through inserts,
// updates, deletes and revives and checks DistinctCount against every value
// ever written: deletes never decrement the statistic.
func TestDistinctCountThroughWritePaths(t *testing.T) {
	d := Open(Config{})
	tab, err := d.CreateTable("t", tuple.NewSchema(tuple.Col("a", tuple.TInt), tuple.Col("b", tuple.TInt)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	refs := [2]map[int64]struct{}{{}, {}}
	value := func() int64 {
		switch rng.Intn(4) {
		case 0:
			return -rng.Int63n(50)
		case 1:
			return math.MaxInt64 - rng.Int63n(50)
		default:
			return rng.Int63n(5_000)
		}
	}
	row := func() tuple.Row {
		r := tuple.Row{tuple.I64(value()), tuple.I64(value())}
		refs[0][r[0].I], refs[1][r[1].I] = struct{}{}, struct{}{}
		return r
	}
	var live, dead []storage.RecordID
	for round := 0; round < 40; round++ {
		var rows []tuple.Row
		for i := 0; i < 50; i++ {
			rows = append(rows, row())
		}
		if err := tab.InsertMany(rows); err != nil {
			t.Fatal(err)
		}
		live = live[:0]
		if err := tab.ScanRows(func(rid storage.RecordID, _ tuple.Row) error {
			live = append(live, rid)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
		upd, del := live[:10], live[10:20]
		var urows []tuple.Row
		for range upd {
			urows = append(urows, row())
		}
		if err := tab.UpdateMany(upd, urows); err != nil {
			t.Fatal(err)
		}
		if err := tab.DeleteMany(del); err != nil {
			t.Fatal(err)
		}
		dead = append(dead, del...)
		if k := min(len(dead), 5); round%2 == 1 && k > 0 {
			var rrows []tuple.Row
			for range dead[:k] {
				rrows = append(rrows, row())
			}
			if err := tab.ReviveMany(dead[:k], rrows); err != nil {
				t.Fatal(err)
			}
			dead = dead[k:]
		}
		for col, ref := range refs {
			if got := tab.DistinctCount(col); got != int64(len(ref)) {
				t.Fatalf("round %d col %d: DistinctCount %d, want %d", round, col, got, len(ref))
			}
		}
	}
}
