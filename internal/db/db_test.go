package db

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
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

// mustTable creates a table of BIGINT columns and loads rows through
// InsertMany: the create and load path every engine table takes.
func mustTable(t *testing.T, d *DB, name string, cols []string, rows ...[]int64) *Table {
	t.Helper()
	sch := tuple.Schema{Cols: make([]tuple.Column, len(cols))}
	for i, c := range cols {
		sch.Cols[i] = tuple.Col(c, tuple.TInt)
	}
	tab, err := d.CreateTable(name, sch)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]tuple.Row, len(rows))
	for i, r := range rows {
		data[i] = make(tuple.Row, len(r))
		for j, v := range r {
			data[i][j] = tuple.I64(v)
		}
	}
	if err := tab.InsertMany(data); err != nil {
		t.Fatal(err)
	}
	return tab
}

// cols is shorthand for a column-name list.
func cols(names ...string) []string { return names }

// rejected asserts that a statement outside the engine's dialect fails with
// an "sql:" or "plan:" error (and, for Exec, with a "db:" error for a
// SELECT), never a panic or a result.
func rejected(t *testing.T, d *DB, sql string) {
	t.Helper()
	_, qerr := d.Query(sql)
	_, eerr := d.Exec(sql)
	for _, err := range []error{qerr, eerr} {
		if err == nil || !(strings.HasPrefix(err.Error(), "sql:") || strings.HasPrefix(err.Error(), "plan:") || strings.HasPrefix(err.Error(), "db:")) {
			t.Errorf("%q: got %v, want an sql:, plan: or db: error", sql, err)
		}
	}
}

func TestCreateInsertSelect(t *testing.T) {
	d := Open(Config{})
	mustTable(t, d, "users", cols("id", "age"), []int64{1, 30}, []int64{2, 41}, []int64{3, 27})
	rows := mustQuery(t, d, "SELECT id, age FROM users WHERE id <> 1 ORDER BY age")
	if len(rows.Data) != 2 {
		t.Fatalf("rows = %v", rows.Data)
	}
	if rows.Data[0][0].I != 3 || rows.Data[1][1].I != 41 {
		t.Fatalf("rows = %v", rows.Data)
	}
	if got := rows.Schema.Cols[1].Name; got != "age" {
		t.Fatalf("output column = %q", got)
	}
}

func TestCreateDuplicateTable(t *testing.T) {
	d := Open(Config{})
	mustTable(t, d, "t", cols("a"))
	if _, err := d.CreateTable("T", tuple.NewSchema(tuple.Col("a", tuple.TInt))); err == nil {
		t.Fatal("duplicate CreateTable accepted (names are case-insensitive)")
	}
	rejected(t, d, "CREATE TABLE u (a BIGINT)")
}

func TestInsertTypeMismatch(t *testing.T) {
	d := Open(Config{})
	tab := mustTable(t, d, "t", cols("a"))
	if err := tab.InsertMany([]tuple.Row{{tuple.IntList([]int64{1})}}); err == nil {
		t.Fatal("type mismatch accepted")
	}
	if err := tab.InsertMany([]tuple.Row{{tuple.I64(1), tuple.I64(2)}}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if tab.RowCount() != 0 {
		t.Fatalf("rejected rows stored: %d", tab.RowCount())
	}
	rejected(t, d, "INSERT INTO t VALUES (1)")
}

func TestJoinQuery(t *testing.T) {
	d := Open(Config{})
	mustTable(t, d, "wrote", cols("author", "paper"), []int64{1, 10}, []int64{1, 11}, []int64{2, 12})
	mustTable(t, d, "cat", cols("paper", "category"), []int64{10, 100}, []int64{11, 101}, []int64{12, 100})
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
	for _, nlOnly := range []bool{false, true} {
		d := Open(Config{Plan: plan.Options{NestedLoopOnly: nlOnly}})
		mustTable(t, d, "a", cols("x", "y"), []int64{1, 2}, []int64{1, 3})
		mustTable(t, d, "b", cols("y", "z"), []int64{2, 4}, []int64{3, 5})
		mustTable(t, d, "c", cols("z", "w"), []int64{4, 6}, []int64{5, 7}, []int64{5, 8})
		rows := mustQuery(t, d, `
			SELECT a.x, c.w FROM a, b, c
			WHERE a.y = b.y AND b.z = c.z ORDER BY w`)
		if len(rows.Data) != 3 {
			t.Fatalf("NestedLoopOnly=%v: rows = %v", nlOnly, rows.Data)
		}
		if rows.Data[0][1].I != 6 || rows.Data[2][1].I != 8 {
			t.Fatalf("NestedLoopOnly=%v: rows = %v", nlOnly, rows.Data)
		}
	}
}

func TestForceJoinOrderStillCorrect(t *testing.T) {
	d := Open(Config{Plan: plan.Options{ForceJoinOrder: true}})
	var big [][]int64
	for i := int64(0); i < 200; i++ {
		big = append(big, []int64{i})
	}
	mustTable(t, d, "big", cols("k"), big...)
	mustTable(t, d, "small", cols("k"), []int64{7}, []int64{8})
	rows := mustQuery(t, d, "SELECT big.k FROM big, small WHERE big.k = small.k ORDER BY k")
	if len(rows.Data) != 2 || rows.Data[0][0].I != 7 {
		t.Fatalf("rows = %v", rows.Data)
	}
}

// Grouping and aggregates are not part of the dialect: the caller counts.
func TestGroupByAggregates(t *testing.T) {
	d := Open(Config{})
	mustTable(t, d, "sales", cols("region", "amount"), []int64{1, 10}, []int64{2, 5})
	rejected(t, d, "SELECT region, COUNT(*) AS n, SUM(amount) AS total FROM sales GROUP BY region")
	rejected(t, d, "SELECT region FROM sales GROUP BY region")
}

func TestArrayAgg(t *testing.T) {
	d := Open(Config{})
	mustTable(t, d, "t", cols("g", "v"), []int64{1, 30})
	rejected(t, d, "SELECT g, ARRAY_AGG(v) AS vs FROM t GROUP BY g ORDER BY g")
}

func TestDistinctAndLimit(t *testing.T) {
	d := Open(Config{})
	mustTable(t, d, "t", cols("v"), []int64{1}, []int64{1})
	rejected(t, d, "SELECT DISTINCT v FROM t ORDER BY v")
	rejected(t, d, "SELECT v FROM t LIMIT 2")
}

func TestInsertSelect(t *testing.T) {
	d := Open(Config{})
	mustTable(t, d, "src", cols("a", "b"), []int64{1, 2})
	mustTable(t, d, "dst", cols("a", "b"))
	rejected(t, d, "INSERT INTO dst SELECT a, b FROM src WHERE a = 1")
	if n := len(mustQuery(t, d, "SELECT a FROM dst").Data); n != 0 {
		t.Fatalf("dst holds %d rows", n)
	}
}

func TestUpdate(t *testing.T) {
	d := Open(Config{})
	mustTable(t, d, "t", cols("id", "truth"), []int64{1, 0}, []int64{2, 0}, []int64{3, 1})
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
	mustTable(t, d, "t", cols("id"), []int64{1}, []int64{2}, []int64{3})
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
	mustTable(t, d, "refers", cols("p1", "p2"), []int64{1, 2}, []int64{2, 3})
	rows := mustQuery(t, d, `
		SELECT r1.p1, r2.p2 FROM refers r1, refers r2
		WHERE r1.p2 = r2.p1`)
	if len(rows.Data) != 1 || rows.Data[0][0].I != 1 || rows.Data[0][1].I != 3 {
		t.Fatalf("rows = %v", rows.Data)
	}
}

func TestSelfJoinWithoutAliasRejected(t *testing.T) {
	d := Open(Config{})
	mustTable(t, d, "t", cols("a"))
	if _, err := d.Query("SELECT t.a FROM t, t"); err == nil {
		t.Fatal("duplicate range variable accepted")
	}
}

// Every column is a BIGINT or an integer list: string literals do not lex.
func TestStringEquality(t *testing.T) {
	d := Open(Config{})
	mustTable(t, d, "t", cols("name", "v"), []int64{1, 1})
	rejected(t, d, "SELECT v FROM t WHERE name = 'beta'")
	rejected(t, d, "UPDATE t SET v = 'x'")
}

// Projections name their columns.
func TestSelectStar(t *testing.T) {
	d := Open(Config{})
	mustTable(t, d, "t", cols("a", "b"), []int64{1, 2})
	rejected(t, d, "SELECT * FROM t")
	rows := mustQuery(t, d, "SELECT a, b FROM t")
	if len(rows.Data) != 1 || rows.Data[0][0].I != 1 || rows.Data[0][1].I != 2 {
		t.Fatalf("rows = %v", rows.Data)
	}
}

// COUNT(*) is not part of the dialect: the row count is the table's
// statistic, and a query's is the length of its result.
func TestCountStar(t *testing.T) {
	d := Open(Config{})
	tab := mustTable(t, d, "t", cols("a"), []int64{1}, []int64{2}, []int64{3})
	rejected(t, d, "SELECT COUNT(*) AS n FROM t")
	if tab.RowCount() != 3 || len(mustQuery(t, d, "SELECT a FROM t WHERE a <> 2").Data) != 2 {
		t.Fatalf("RowCount = %d", tab.RowCount())
	}
}

func TestQueryErrors(t *testing.T) {
	d := Open(Config{})
	mustTable(t, d, "t", cols("a"))
	for _, sql := range []string{
		"SELECT a FROM missing",
		"SELECT nocol FROM t",
		"SELECT a FROM t WHERE nocol = 1",
		"SELEC a FROM t",
		"SELECT a FROM t WHERE a ~ 1",
		"SELECT a FROM t WHERE a < 1",
		"UPDATE t SET nocol = 1",
		"UPDATE missing SET a = 1",
		"DELETE FROM missing",
		"DELETE FROM t WHERE nocol = 1",
	} {
		if _, err := d.Exec(sql); err == nil {
			t.Errorf("no error for %q", sql)
		}
	}
	// Exec runs UPDATE and DELETE only; SELECT goes through Query.
	if _, err := d.Exec("SELECT a FROM t"); err == nil {
		t.Error("Exec ran a SELECT")
	}
	if _, err := d.Query("DELETE FROM t"); err == nil {
		t.Error("Query ran a DELETE")
	}
}

func TestTableStatsTracking(t *testing.T) {
	d := Open(Config{})
	var rows [][]int64
	for i := int64(0); i < 100; i++ {
		rows = append(rows, []int64{i, i % 10})
	}
	mustTable(t, d, "t", cols("a", "b"), rows...)
	tab, _ := d.Table("T")
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
	res := mustQuery(t, d, "SELECT v FROM bulk WHERE id = 4321")
	if tab.RowCount() != 10000 || len(res.Data) != 1 || res.Data[0][0].I != 8642 {
		t.Fatalf("RowCount = %d, v(4321) = %v", tab.RowCount(), res.Data)
	}
}

func TestHashIndexMaintenance(t *testing.T) {
	d := Open(Config{})
	tab, _ := d.CreateTable("t", tuple.NewSchema(tuple.Col("k", tuple.TInt)))
	if _, err := tab.BuildHashIndex(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := tab.Insert(tuple.Row{tuple.I64(int64(i % 5))}); err != nil {
			t.Fatal(err)
		}
	}
	idx, ok := tab.HashIndexOn(0)
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
	if err := tab.UpdateMany([]storage.RecordID{rid}, []tuple.Row{{tuple.I64(9), tuple.I64(8)}}); err != nil {
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
	idx, err := tab.BuildHashIndex(0)
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

// Deleting one row by rid drops exactly its index entries, and deleting it
// again fails.
func TestDeleteAtDropsIndexEntries(t *testing.T) {
	d := Open(Config{})
	tab := mustTable(t, d, "t", cols("k"), []int64{0}, []int64{1}, []int64{0}, []int64{1}, []int64{0})
	idx, err := tab.BuildHashIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	key := tuple.EncodeKey(tuple.Row{tuple.I64(0)}, []int{0})
	if got := len(idx.Lookup(key)); got != 3 {
		t.Fatalf("index rids for 0 = %d", got)
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
	if err := tab.DeleteMany([]storage.RecordID{zeroRID}); err != nil {
		t.Fatal(err)
	}
	if got := len(idx.Lookup(key)); got != 2 {
		t.Fatalf("index rids for 0 after delete = %d", got)
	}
	if err := tab.DeleteMany([]storage.RecordID{zeroRID}); err == nil {
		t.Fatal("double delete accepted")
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
	if _, err := tab.BuildHashIndex(0); err != nil {
		t.Fatal(err)
	}
	if _, ok := tab.HashIndexOn(0); !ok {
		t.Fatal("index not registered")
	}
	tab.DropHashIndex(0)
	if _, ok := tab.HashIndexOn(0); ok {
		t.Fatal("index still registered after drop")
	}
	tab.DropHashIndex(0) // idempotent
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
	if err := tab.UpdateMany([]storage.RecordID{rid}, []tuple.Row{{tuple.I64(99)}}); err != nil {
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
	if _, err := tab.BuildHashIndex(0); err != nil {
		t.Fatal(err)
	}
	var urows [][]int64
	for i := int64(0); i < 60; i++ {
		urows = append(urows, []int64{i % 17, 1000 + i})
	}
	mustTable(t, d, "u", cols("k", "w"), urows...)
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
		"SELECT k AS key, w FROM u ORDER BY key, w",
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
	mustTable(t, d, "t", cols("k", "v"), []int64{1, 10}, []int64{2, 20}, []int64{3, 30})
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
