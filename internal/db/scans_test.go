package db

import (
	"errors"
	"testing"

	"tuffy/internal/db/tuple"
)

// scanTables holds a(k, v) and b(k, w), each larger than a quarter of an
// 8-page pool, so every scan of them takes a scan cursor and holds it from
// its Open to its Close.
func scanTables(t *testing.T) *DB {
	t.Helper()
	d := Open(Config{BufferPoolPages: 8})
	for _, name := range []string{"a", "b"} {
		tab, err := d.CreateTable(name, tuple.NewSchema(tuple.Col("k", tuple.TInt), tuple.Col(name+"v", tuple.TInt)))
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]tuple.Row, 3000)
		for i := range rows {
			rows[i] = tuple.Row{tuple.I64(int64(i % 97)), tuple.I64(int64(i))}
		}
		if err := tab.InsertMany(rows); err != nil {
			t.Fatal(err)
		}
		if pages := tab.Blocks(); pages <= 2 {
			t.Fatalf("table %s spans %d pages, want more than a quarter of the pool", name, pages)
		}
	}
	return d
}

func requireNoOpenScans(t *testing.T, d *DB, after string) {
	t.Helper()
	if open := d.Pool().Stats().ScansOpen; open != 0 {
		t.Fatalf("%d scans still open after %s", open, after)
	}
}

// A query that stops part-way closes every scan it opened: after a
// callback error mid-stream, and after a join whose build side hits a
// record it cannot decode while the probe side's scan is already open.
func TestQueryClosesScansOnError(t *testing.T) {
	const join = "SELECT a.av, b.bv FROM a, b WHERE a.k = b.k"
	d := scanTables(t)
	stop := errors.New("stop")
	calls := 0
	err := d.QueryEach(join, nil, func(tuple.Row) error {
		if calls++; calls == 500 {
			return stop
		}
		return nil
	})
	if err != stop {
		t.Fatalf("callback error: got %v", err)
	}
	requireNoOpenScans(t, d, "a callback error")

	// A truncated record at the end of both tables: whichever one the
	// planner builds on fails to decode during the join's Open.
	for _, name := range []string{"a", "b"} {
		tab, _ := d.Table(name)
		if _, err := tab.Heap().Insert([]byte{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.QueryEach(join, nil, func(tuple.Row) error { return nil }); err == nil {
		t.Fatal("a truncated record decoded without error")
	}
	requireNoOpenScans(t, d, "a decode error on the build side")
}
