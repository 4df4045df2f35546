package db

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"tuffy/internal/db/plan"
	"tuffy/internal/db/storage"
	"tuffy/internal/db/tuple"
)

func mustExec(t *testing.T, d *DB, sql string) int64 {
	t.Helper()
	n, err := d.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return n
}

func mustQuery(t *testing.T, d *DB, sql string) *Rows {
	t.Helper()
	rows, err := d.Query(sql)
	if err != nil {
		t.Fatalf("Query(%q): %v", sql, err)
	}
	return rows
}

func TestCreateInsertSelect(t *testing.T) {
	d := Open(Config{})
	mustExec(t, d, "CREATE TABLE users (id BIGINT, name TEXT)")
	mustExec(t, d, "INSERT INTO users VALUES (1, 'ann'), (2, 'bob'), (3, 'cho')")
	rows := mustQuery(t, d, "SELECT id, name FROM users WHERE id >= 2 ORDER BY id")
	if len(rows.Data) != 2 {
		t.Fatalf("rows = %v", rows.Data)
	}
	if rows.Data[0][1].S != "bob" || rows.Data[1][1].S != "cho" {
		t.Fatalf("rows = %v", rows.Data)
	}
}

func TestCreateDuplicateTable(t *testing.T) {
	d := Open(Config{})
	mustExec(t, d, "CREATE TABLE t (a BIGINT)")
	if _, err := d.Exec("CREATE TABLE t (a BIGINT)"); err == nil {
		t.Fatal("duplicate CREATE TABLE accepted")
	}
}

func TestInsertTypeMismatch(t *testing.T) {
	d := Open(Config{})
	mustExec(t, d, "CREATE TABLE t (a BIGINT)")
	if _, err := d.Exec("INSERT INTO t VALUES ('nope')"); err == nil {
		t.Fatal("type mismatch accepted")
	}
}

func TestJoinQuery(t *testing.T) {
	d := Open(Config{})
	mustExec(t, d, "CREATE TABLE wrote (author BIGINT, paper BIGINT)")
	mustExec(t, d, "CREATE TABLE cat (paper BIGINT, category BIGINT)")
	mustExec(t, d, "INSERT INTO wrote VALUES (1, 10), (1, 11), (2, 12)")
	mustExec(t, d, "INSERT INTO cat VALUES (10, 100), (11, 101), (12, 100)")
	rows := mustQuery(t, d, `
		SELECT w.author, c.category
		FROM wrote w, cat c
		WHERE w.paper = c.paper AND c.category = 100
		ORDER BY author`)
	if len(rows.Data) != 2 {
		t.Fatalf("rows = %v", rows.Data)
	}
	if rows.Data[0][0].I != 1 || rows.Data[1][0].I != 2 {
		t.Fatalf("rows = %v", rows.Data)
	}
}

func TestThreeWayJoinAllAlgorithms(t *testing.T) {
	for _, alg := range []plan.JoinAlgorithm{plan.JoinAuto, plan.JoinHashOnly, plan.JoinMergeOnly, plan.JoinNestedLoopOnly} {
		d := Open(Config{Plan: plan.Options{Algorithm: alg}})
		mustExec(t, d, "CREATE TABLE a (x BIGINT, y BIGINT)")
		mustExec(t, d, "CREATE TABLE b (y BIGINT, z BIGINT)")
		mustExec(t, d, "CREATE TABLE c (z BIGINT, w BIGINT)")
		mustExec(t, d, "INSERT INTO a VALUES (1, 2), (1, 3)")
		mustExec(t, d, "INSERT INTO b VALUES (2, 4), (3, 5)")
		mustExec(t, d, "INSERT INTO c VALUES (4, 6), (5, 7), (5, 8)")
		rows := mustQuery(t, d, `
			SELECT a.x, c.w FROM a, b, c
			WHERE a.y = b.y AND b.z = c.z ORDER BY w`)
		if len(rows.Data) != 3 {
			t.Fatalf("alg %v: rows = %v", alg, rows.Data)
		}
		if rows.Data[0][1].I != 6 || rows.Data[2][1].I != 8 {
			t.Fatalf("alg %v: rows = %v", alg, rows.Data)
		}
	}
}

func TestForceJoinOrderStillCorrect(t *testing.T) {
	d := Open(Config{Plan: plan.Options{ForceJoinOrder: true}})
	mustExec(t, d, "CREATE TABLE big (k BIGINT)")
	mustExec(t, d, "CREATE TABLE small (k BIGINT)")
	for i := 0; i < 200; i++ {
		mustExec(t, d, fmt.Sprintf("INSERT INTO big VALUES (%d)", i))
	}
	mustExec(t, d, "INSERT INTO small VALUES (7), (8)")
	rows := mustQuery(t, d, "SELECT big.k FROM big, small WHERE big.k = small.k ORDER BY k")
	if len(rows.Data) != 2 || rows.Data[0][0].I != 7 {
		t.Fatalf("rows = %v", rows.Data)
	}
}

func TestGroupByAggregates(t *testing.T) {
	d := Open(Config{})
	mustExec(t, d, "CREATE TABLE sales (region BIGINT, amount BIGINT)")
	mustExec(t, d, "INSERT INTO sales VALUES (1, 10), (1, 20), (2, 5), (2, 6), (2, 7)")
	rows := mustQuery(t, d, `
		SELECT region, COUNT(*) AS n, SUM(amount) AS total, MIN(amount) AS lo, MAX(amount) AS hi
		FROM sales GROUP BY region ORDER BY region`)
	if len(rows.Data) != 2 {
		t.Fatalf("rows = %v", rows.Data)
	}
	r1 := rows.Data[0]
	if r1[0].I != 1 || r1[1].I != 2 || r1[2].I != 30 || r1[3].I != 10 || r1[4].I != 20 {
		t.Fatalf("region 1 = %v", r1)
	}
	r2 := rows.Data[1]
	if r2[0].I != 2 || r2[1].I != 3 || r2[2].I != 18 {
		t.Fatalf("region 2 = %v", r2)
	}
}

func TestArrayAgg(t *testing.T) {
	d := Open(Config{})
	mustExec(t, d, "CREATE TABLE t (g BIGINT, v BIGINT)")
	mustExec(t, d, "INSERT INTO t VALUES (1, 30), (1, 10), (2, 99), (1, 20)")
	rows := mustQuery(t, d, "SELECT g, ARRAY_AGG(v) AS vs FROM t GROUP BY g ORDER BY g")
	if len(rows.Data) != 2 {
		t.Fatalf("rows = %v", rows.Data)
	}
	if fmt.Sprint(rows.Data[0][1].List) != "[10 20 30]" {
		t.Fatalf("array_agg = %v", rows.Data[0][1])
	}
}

func TestDistinctAndLimit(t *testing.T) {
	d := Open(Config{})
	mustExec(t, d, "CREATE TABLE t (v BIGINT)")
	mustExec(t, d, "INSERT INTO t VALUES (1), (2), (1), (3), (2), (1)")
	rows := mustQuery(t, d, "SELECT DISTINCT v FROM t ORDER BY v")
	if len(rows.Data) != 3 {
		t.Fatalf("distinct = %v", rows.Data)
	}
	rows = mustQuery(t, d, "SELECT v FROM t LIMIT 2")
	if len(rows.Data) != 2 {
		t.Fatalf("limit = %v", rows.Data)
	}
}

func TestInsertSelect(t *testing.T) {
	d := Open(Config{})
	mustExec(t, d, "CREATE TABLE src (a BIGINT, b BIGINT)")
	mustExec(t, d, "CREATE TABLE dst (a BIGINT, b BIGINT)")
	mustExec(t, d, "INSERT INTO src VALUES (1, 2), (3, 4), (5, 6)")
	n := mustExec(t, d, "INSERT INTO dst SELECT a, b FROM src WHERE a > 1")
	if n != 2 {
		t.Fatalf("inserted %d", n)
	}
	rows := mustQuery(t, d, "SELECT a FROM dst ORDER BY a")
	if len(rows.Data) != 2 || rows.Data[0][0].I != 3 {
		t.Fatalf("rows = %v", rows.Data)
	}
}

func TestUpdate(t *testing.T) {
	d := Open(Config{})
	mustExec(t, d, "CREATE TABLE t (id BIGINT, truth BIGINT)")
	mustExec(t, d, "INSERT INTO t VALUES (1, 0), (2, 0), (3, 1)")
	n := mustExec(t, d, "UPDATE t SET truth = 1 WHERE id = 2")
	if n != 1 {
		t.Fatalf("updated %d", n)
	}
	rows := mustQuery(t, d, "SELECT id FROM t WHERE truth = 1 ORDER BY id")
	if len(rows.Data) != 2 || rows.Data[0][0].I != 2 || rows.Data[1][0].I != 3 {
		t.Fatalf("rows = %v", rows.Data)
	}
}

func TestDelete(t *testing.T) {
	d := Open(Config{})
	mustExec(t, d, "CREATE TABLE t (id BIGINT)")
	mustExec(t, d, "INSERT INTO t VALUES (1), (2), (3)")
	n := mustExec(t, d, "DELETE FROM t WHERE id <> 2")
	if n != 2 {
		t.Fatalf("deleted %d", n)
	}
	rows := mustQuery(t, d, "SELECT id FROM t")
	if len(rows.Data) != 1 || rows.Data[0][0].I != 2 {
		t.Fatalf("rows = %v", rows.Data)
	}
}

func TestSelfJoinWithAliases(t *testing.T) {
	d := Open(Config{})
	mustExec(t, d, "CREATE TABLE refers (p1 BIGINT, p2 BIGINT)")
	mustExec(t, d, "INSERT INTO refers VALUES (1, 2), (2, 3)")
	rows := mustQuery(t, d, `
		SELECT r1.p1, r2.p2 FROM refers r1, refers r2
		WHERE r1.p2 = r2.p1`)
	if len(rows.Data) != 1 || rows.Data[0][0].I != 1 || rows.Data[0][1].I != 3 {
		t.Fatalf("rows = %v", rows.Data)
	}
}

func TestSelfJoinWithoutAliasRejected(t *testing.T) {
	d := Open(Config{})
	mustExec(t, d, "CREATE TABLE t (a BIGINT)")
	if _, err := d.Query("SELECT t.a FROM t, t"); err == nil {
		t.Fatal("duplicate range variable accepted")
	}
}

func TestStringEquality(t *testing.T) {
	d := Open(Config{})
	mustExec(t, d, "CREATE TABLE t (name TEXT, v BIGINT)")
	mustExec(t, d, "INSERT INTO t VALUES ('alpha', 1), ('beta', 2), ('it''s', 3)")
	rows := mustQuery(t, d, "SELECT v FROM t WHERE name = 'beta'")
	if len(rows.Data) != 1 || rows.Data[0][0].I != 2 {
		t.Fatalf("rows = %v", rows.Data)
	}
	rows = mustQuery(t, d, "SELECT v FROM t WHERE name = 'it''s'")
	if len(rows.Data) != 1 || rows.Data[0][0].I != 3 {
		t.Fatalf("escaped quote rows = %v", rows.Data)
	}
}

func TestSelectStar(t *testing.T) {
	d := Open(Config{})
	mustExec(t, d, "CREATE TABLE t (a BIGINT, b TEXT)")
	mustExec(t, d, "INSERT INTO t VALUES (1, 'x')")
	rows := mustQuery(t, d, "SELECT * FROM t")
	if len(rows.Data) != 1 || rows.Data[0][0].I != 1 || rows.Data[0][1].S != "x" {
		t.Fatalf("rows = %v", rows.Data)
	}
}

func TestCountStar(t *testing.T) {
	d := Open(Config{})
	mustExec(t, d, "CREATE TABLE t (a BIGINT)")
	mustExec(t, d, "INSERT INTO t VALUES (1), (2), (3)")
	rows := mustQuery(t, d, "SELECT COUNT(*) AS n FROM t")
	if len(rows.Data) != 1 || rows.Data[0][0].I != 3 {
		t.Fatalf("count = %v", rows.Data)
	}
}

func TestQueryErrors(t *testing.T) {
	d := Open(Config{})
	mustExec(t, d, "CREATE TABLE t (a BIGINT)")
	for _, sql := range []string{
		"SELECT a FROM missing",
		"SELECT nocol FROM t",
		"SELECT a FROM t WHERE nocol = 1",
		"SELEC a FROM t",
		"SELECT a FROM t WHERE a ~ 1",
		"INSERT INTO missing VALUES (1)",
		"UPDATE t SET nocol = 1",
		"DELETE FROM missing",
	} {
		if _, err := d.Exec(sql); err == nil {
			t.Errorf("no error for %q", sql)
		}
	}
}

func TestTableStatsTracking(t *testing.T) {
	d := Open(Config{})
	mustExec(t, d, "CREATE TABLE t (a BIGINT, b BIGINT)")
	for i := 0; i < 100; i++ {
		mustExec(t, d, fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i, i%10))
	}
	tab, _ := d.Table("t")
	if tab.RowCount() != 100 {
		t.Fatalf("RowCount = %d", tab.RowCount())
	}
	if tab.DistinctCount(0) != 100 || tab.DistinctCount(1) != 10 {
		t.Fatalf("distinct = %d, %d", tab.DistinctCount(0), tab.DistinctCount(1))
	}
}

func TestBulkLoadDirectAPI(t *testing.T) {
	d := Open(Config{})
	tab, err := d.CreateTable("bulk", tuple.NewSchema(
		tuple.Col("id", tuple.TInt), tuple.Col("v", tuple.TInt)))
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]tuple.Row, 10000)
	for i := range rows {
		rows[i] = tuple.Row{tuple.I64(int64(i)), tuple.I64(int64(i * 2))}
	}
	if err := tab.InsertMany(rows); err != nil {
		t.Fatal(err)
	}
	res := mustQuery(t, d, "SELECT COUNT(*) AS n FROM bulk")
	if res.Data[0][0].I != 10000 {
		t.Fatalf("count = %v", res.Data)
	}
}

func TestHashIndexMaintenance(t *testing.T) {
	d := Open(Config{})
	tab, _ := d.CreateTable("t", tuple.NewSchema(tuple.Col("k", tuple.TInt)))
	if _, err := tab.BuildHashIndex([]int{0}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := tab.Insert(tuple.Row{tuple.I64(int64(i % 5))}); err != nil {
			t.Fatal(err)
		}
	}
	idx, ok := tab.HashIndexOn([]int{0})
	if !ok {
		t.Fatal("index lost")
	}
	key := tuple.EncodeKey(tuple.Row{tuple.I64(3)}, []int{0})
	if got := len(idx.Lookup(key)); got != 10 {
		t.Fatalf("index lookup = %d rids", got)
	}
}

func TestUpdateAtAndGet(t *testing.T) {
	d := Open(Config{})
	tab, _ := d.CreateTable("t", tuple.NewSchema(tuple.Col("a", tuple.TInt), tuple.Col("b", tuple.TInt)))
	if err := tab.Insert(tuple.Row{tuple.I64(1), tuple.I64(2)}); err != nil {
		t.Fatal(err)
	}
	var rid storage.RecordID
	if err := tab.ScanRows(func(r storage.RecordID, row tuple.Row) error {
		rid = r
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := tab.UpdateAt(rid, tuple.Row{tuple.I64(9), tuple.I64(8)}); err != nil {
		t.Fatal(err)
	}
	row, err := tab.Get(rid)
	if err != nil {
		t.Fatal(err)
	}
	if row[0].I != 9 || row[1].I != 8 {
		t.Fatalf("row = %v", row)
	}
}

// UpdateMany / DeleteMany must keep secondary indexes consistent: old keys
// stop matching, new keys match, and SQL UPDATE/DELETE (which route through
// the same paths) no longer leave stale rids behind.
func TestBatchedWritesMaintainHashIndex(t *testing.T) {
	d := Open(Config{})
	tab, _ := d.CreateTable("t", tuple.NewSchema(tuple.Col("k", tuple.TInt), tuple.Col("v", tuple.TInt)))
	for i := 0; i < 8; i++ {
		if err := tab.Insert(tuple.Row{tuple.I64(int64(i)), tuple.I64(int64(100 + i))}); err != nil {
			t.Fatal(err)
		}
	}
	idx, err := tab.BuildHashIndex([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	key := func(k int64) string { return tuple.EncodeKey(tuple.Row{tuple.I64(k)}, []int{0}) }

	var rids []storage.RecordID
	if err := tab.ScanRows(func(rid storage.RecordID, _ tuple.Row) error {
		rids = append(rids, rid)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Re-key rows 0 and 1 to 50 and 51 in one batch.
	if err := tab.UpdateMany(rids[:2], []tuple.Row{
		{tuple.I64(50), tuple.I64(100)},
		{tuple.I64(51), tuple.I64(101)},
	}); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int64{0, 1} {
		if got := idx.Lookup(key(k)); len(got) != 0 {
			t.Fatalf("stale index entries for re-keyed %d: %v", k, got)
		}
	}
	for _, k := range []int64{50, 51} {
		if got := idx.Lookup(key(k)); len(got) != 1 {
			t.Fatalf("index missing re-keyed %d: %v", k, got)
		}
	}

	// Batched delete drops entries.
	if err := tab.DeleteMany(rids[2:4]); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int64{2, 3} {
		if got := idx.Lookup(key(k)); len(got) != 0 {
			t.Fatalf("stale index entries for deleted %d: %v", k, got)
		}
	}
	if tab.RowCount() != 6 {
		t.Fatalf("row count = %d", tab.RowCount())
	}

	// SQL paths ride the same maintenance.
	if _, err := d.Exec("DELETE FROM t WHERE k = 4"); err != nil {
		t.Fatal(err)
	}
	if got := idx.Lookup(key(4)); len(got) != 0 {
		t.Fatalf("SQL DELETE left stale index entries: %v", got)
	}
	if _, err := d.Exec("UPDATE t SET k = 77 WHERE k = 5"); err != nil {
		t.Fatal(err)
	}
	if got := idx.Lookup(key(5)); len(got) != 0 {
		t.Fatalf("SQL UPDATE left stale index entries: %v", got)
	}
	if got := idx.Lookup(key(77)); len(got) != 1 {
		t.Fatalf("SQL UPDATE did not index the new key: %v", got)
	}
}

func TestDeleteAtAndBTreeRemoval(t *testing.T) {
	d := Open(Config{})
	tab, _ := d.CreateTable("t", tuple.NewSchema(tuple.Col("k", tuple.TInt)))
	for i := 0; i < 5; i++ {
		if err := tab.Insert(tuple.Row{tuple.I64(int64(i % 2))}); err != nil {
			t.Fatal(err)
		}
	}
	bt, err := tab.BuildBTreeIndex([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	key := tuple.EncodeKey(tuple.Row{tuple.I64(0)}, []int{0})
	if got := len(bt.Lookup(key)); got != 3 {
		t.Fatalf("btree rids for 0 = %d", got)
	}
	var zeroRID storage.RecordID
	found := false
	if err := tab.ScanRows(func(rid storage.RecordID, row tuple.Row) error {
		if !found && row[0].I == 0 {
			zeroRID, found = rid, true
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := tab.DeleteAt(zeroRID); err != nil {
		t.Fatal(err)
	}
	if got := len(bt.Lookup(key)); got != 2 {
		t.Fatalf("btree rids for 0 after DeleteAt = %d", got)
	}
	if err := tab.DeleteAt(zeroRID); err == nil {
		t.Fatal("double DeleteAt accepted")
	}
}

func TestUpdateManyRejectsMisalignedArgs(t *testing.T) {
	d := Open(Config{})
	tab, _ := d.CreateTable("t", tuple.NewSchema(tuple.Col("k", tuple.TInt)))
	if err := tab.UpdateMany(make([]storage.RecordID, 2), []tuple.Row{{tuple.I64(1)}}); err == nil {
		t.Fatal("misaligned UpdateMany accepted")
	}
	if err := tab.UpdateMany(nil, nil); err != nil {
		t.Fatalf("empty UpdateMany: %v", err)
	}
	if err := tab.DeleteMany(nil); err != nil {
		t.Fatalf("empty DeleteMany: %v", err)
	}
}

func TestDropHashIndexDeregisters(t *testing.T) {
	d := Open(Config{})
	tab, _ := d.CreateTable("t", tuple.NewSchema(tuple.Col("k", tuple.TInt)))
	if err := tab.Insert(tuple.Row{tuple.I64(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.BuildHashIndex([]int{0}); err != nil {
		t.Fatal(err)
	}
	if _, ok := tab.HashIndexOn([]int{0}); !ok {
		t.Fatal("index not registered")
	}
	tab.DropHashIndex([]int{0})
	if _, ok := tab.HashIndexOn([]int{0}); ok {
		t.Fatal("index still registered after drop")
	}
	tab.DropHashIndex([]int{0}) // idempotent
}

// Distinct statistics must pick up updated values whether or not the table
// has secondary indexes — planner estimates cannot depend on index
// presence.
func TestUpdateManyMaintainsDistinctStatsWithoutIndex(t *testing.T) {
	d := Open(Config{})
	tab, _ := d.CreateTable("t", tuple.NewSchema(tuple.Col("k", tuple.TInt)))
	if err := tab.Insert(tuple.Row{tuple.I64(1)}); err != nil {
		t.Fatal(err)
	}
	var rid storage.RecordID
	if err := tab.ScanRows(func(r storage.RecordID, _ tuple.Row) error { rid = r; return nil }); err != nil {
		t.Fatal(err)
	}
	if err := tab.UpdateAt(rid, tuple.Row{tuple.I64(99)}); err != nil {
		t.Fatal(err)
	}
	if got := tab.DistinctCount(0); got != 2 {
		t.Fatalf("DistinctCount = %d, want 2 (1 and 99 both seen)", got)
	}
}

// queryEach collects QueryEach's rows, cloning each as the contract asks.
func queryEach(t *testing.T, d *DB, sql string, ranges []plan.HashRange) []tuple.Row {
	t.Helper()
	var out []tuple.Row
	if err := d.QueryEach(sql, ranges, func(r tuple.Row) error {
		out = append(out, r.Clone())
		return nil
	}); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return out
}

// rangedTables holds t(k, v) with a hash index on k and u(k, w) without one.
func rangedTables(t *testing.T) *DB {
	t.Helper()
	d := Open(Config{})
	tab, err := d.CreateTable("t", tuple.NewSchema(tuple.Col("k", tuple.TInt), tuple.Col("v", tuple.TInt)))
	if err != nil {
		t.Fatal(err)
	}
	var rows []tuple.Row
	for i := int64(0); i < 200; i++ {
		rows = append(rows, tuple.Row{tuple.I64(i % 31), tuple.I64(i)})
	}
	if err := tab.InsertMany(rows); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.BuildHashIndex([]int{0}); err != nil {
		t.Fatal(err)
	}
	mustExec(t, d, "CREATE TABLE u (k BIGINT, w BIGINT)")
	for i := 0; i < 60; i++ {
		mustExec(t, d, fmt.Sprintf("INSERT INTO u VALUES (%d, %d)", i%17, 1000+i))
	}
	return d
}

// A ranged QueryEach must split a query into disjoint parts whose union is
// the unrestricted result as a multiset (the intra-clause parallel
// grounder's contract), on real heap storage — including the index-equipped
// path and a join that restricts both of its scans.
func TestQueryRangedPartition(t *testing.T) {
	d := rangedTables(t)
	for _, q := range []struct {
		sql    string
		ranges func(mod, rem uint32) []plan.HashRange
	}{
		{"SELECT k, v FROM t ORDER BY v", func(mod, rem uint32) []plan.HashRange {
			return []plan.HashRange{{Table: "t", Col: "k", Mod: mod, Rem: rem}}
		}},
		{"SELECT t.k, t.v, u.w FROM t, u WHERE t.k = u.k", func(mod, rem uint32) []plan.HashRange {
			return []plan.HashRange{{Table: "t", Col: "k", Mod: mod, Rem: rem}, {Table: "u", Col: "k", Mod: mod, Rem: rem}}
		}},
	} {
		full := queryEach(t, d, q.sql, nil)
		const mod = 4
		var union []tuple.Row
		for rem := uint32(0); rem < mod; rem++ {
			union = append(union, queryEach(t, d, q.sql, q.ranges(mod, rem))...)
		}
		if got, want := sortedKeys(union), sortedKeys(full); !slices.Equal(got, want) {
			t.Fatalf("%s: ranges produced %d rows, full query %d, or different ones", q.sql, len(union), len(full))
		}
	}
}

// sortedKeys renders rows as sorted strings: the multiset of a result.
func sortedKeys(rows []tuple.Row) []string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = fmt.Sprint(r)
	}
	slices.Sort(keys)
	return keys
}

// QueryEach streams exactly Query's rows in Query's order, and an error from
// the callback stops the query and comes back unchanged.
func TestQueryEachMatchesQuery(t *testing.T) {
	d := rangedTables(t)
	for _, sql := range []string{
		"SELECT k, v FROM t",
		"SELECT k, v FROM t WHERE k = 3",
		"SELECT t.v, u.w FROM t, u WHERE t.k = u.k AND u.w <> 1001",
		"SELECT DISTINCT k FROM t ORDER BY k",
		"SELECT k, COUNT(*) FROM u GROUP BY k",
	} {
		want := mustQuery(t, d, sql).Data
		if got := queryEach(t, d, sql, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: QueryEach\n%v\nQuery\n%v", sql, got, want)
		}
	}
	stop := errors.New("stop")
	calls := 0
	err := d.QueryEach("SELECT k FROM t", nil, func(tuple.Row) error { calls++; return stop })
	if err != stop || calls != 1 {
		t.Fatalf("callback error: got %v after %d calls", err, calls)
	}
}

// EstimateQuery returns the optimizer's Explain without executing; the
// grounding scheduler keys its split decisions on EstRows+EstBlocks.
func TestEstimateQuery(t *testing.T) {
	d := Open(Config{})
	mustExec(t, d, "CREATE TABLE t (k BIGINT, v BIGINT)")
	mustExec(t, d, "INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
	ex, err := d.EstimateQuery("SELECT k FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if ex.EstRows < 1 || ex.EstBlocks < 1 {
		t.Fatalf("estimates = %+v", ex)
	}
	if len(ex.JoinOrder) != 1 || ex.Access["t"] == "" {
		t.Fatalf("explain = %+v", ex)
	}
}
