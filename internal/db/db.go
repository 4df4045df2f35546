// Package db is the embedded relational engine ("minidb") that plays the
// role PostgreSQL plays in the Tuffy paper: it stores the predicate and
// clause tables, executes the grounding SQL produced by the bottom-up
// grounder, and hosts the in-database search variant (Tuffy-mm). It wires
// together the storage, index, exec, plan and sqlparse packages and exposes
// Query/QueryEach for the grounding SELECTs, Exec for UPDATE and DELETE, and
// a direct create/bulk-load path (CreateTable, InsertMany).
package db

import (
	"fmt"
	"strings"
	"sync"

	"tuffy/internal/db/exec"
	"tuffy/internal/db/index"
	"tuffy/internal/db/plan"
	"tuffy/internal/db/sqlparse"
	"tuffy/internal/db/storage"
	"tuffy/internal/db/tuple"
	"tuffy/internal/valueset"
)

// Config controls engine construction.
type Config struct {
	// BufferPoolPages caps the buffer pool (default 4096 pages). Over the
	// default in-memory disk it bounds resident frames, not extra bytes
	// (see storage.BufferPool); over any other Disk a frame is an 8 KB copy.
	BufferPoolPages int
	// Plan holds the optimizer knobs (lesion-study switches).
	Plan plan.Options
	// Disk overrides the default in-memory disk (e.g. one with injected
	// latency for I/O-cost experiments).
	Disk storage.Disk
}

// DB is one engine instance. The catalog and each table's secondary
// structures are guarded by RWMutexes, and the storage layer uses pin counts
// under its own lock, so concurrent read-only queries (the parallel
// grounder's workload) are safe and run without serializing on a single
// lock. DML statements take the same locks; concurrent writers to one table
// additionally rely on the heap file's single-writer contract.
type DB struct {
	mu       sync.RWMutex
	disk     storage.Disk
	pool     *storage.BufferPool
	tables   map[string]*Table
	nextFile int32
	// freeFiles holds file ids whose tables were dropped and whose pages
	// were returned to the disk's free list; CreateTable reuses them before
	// minting new ids, so repeated create/drop cycles (per-query helper
	// tables) hold storage at its high-water mark.
	freeFiles []int32
	// planOpts is fixed at Open (the lesion knobs), so queries read it
	// without taking mu.
	planOpts plan.Options
}

// Open creates an engine.
func Open(cfg Config) *DB {
	if cfg.BufferPoolPages == 0 {
		cfg.BufferPoolPages = 4096
	}
	d := cfg.Disk
	if d == nil {
		d = storage.NewMemDisk()
	}
	return &DB{
		disk:     d,
		pool:     storage.NewBufferPool(d, cfg.BufferPoolPages),
		tables:   make(map[string]*Table),
		nextFile: 1,
		planOpts: cfg.Plan,
	}
}

// Disk exposes the underlying disk (for I/O stats in experiments).
func (db *DB) Disk() storage.Disk { return db.disk }

// Pool exposes the buffer pool (for hit/miss stats in experiments).
func (db *DB) Pool() *storage.BufferPool { return db.pool }

// PlanOptions returns the optimizer knobs the engine was opened with.
func (db *DB) PlanOptions() plan.Options { return db.planOpts }

// Table is one base table: heap storage, schema, statistics and optional
// secondary indexes.
type Table struct {
	db   *DB
	name string
	sch  tuple.Schema
	heap *storage.HeapFile

	// mu guards the statistics and the hash-index map below: the planner
	// reads the statistics while another table loads concurrently, and the
	// in-database search registers its point-lookup indexes in the map.
	mu sync.RWMutex
	// distinct[i] holds the values integer column i has ever held (nil
	// for an integer-list column, which no query filters or joins on).
	distinct []*valueset.Set
	hashIdx  map[int]*index.HashIndex // single-column hash indexes by column
}

// CreateTable creates a table; it fails if the name exists.
func (db *DB) CreateTable(name string, sch tuple.Schema) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(name)
	if _, dup := db.tables[key]; dup {
		return nil, fmt.Errorf("db: table %q already exists", name)
	}
	file := db.nextFile
	if n := len(db.freeFiles); n > 0 {
		file = db.freeFiles[n-1]
		db.freeFiles = db.freeFiles[:n-1]
	} else {
		db.nextFile++
	}
	t := &Table{
		db:       db,
		name:     name,
		sch:      sch,
		heap:     storage.NewHeapFile(db.pool, file),
		distinct: make([]*valueset.Set, sch.Arity()),
		hashIdx:  make(map[int]*index.HashIndex),
	}
	for i, c := range sch.Cols {
		if c.Type == tuple.TInt {
			t.distinct[i] = new(valueset.Set)
		}
	}
	db.tables[key] = t
	return t, nil
}

// DropTable removes a table from the catalog and returns its pages to the
// free list: the table's cached frames are discarded (without write-back),
// its file is truncated on disk, and the file id is queued for reuse by the
// next CreateTable. The caller must ensure no other user still reads the
// table; if a page is still pinned the table is dropped from the catalog
// but its storage is leaked rather than corrupted.
func (db *DB) DropTable(name string) error {
	db.mu.Lock()
	key := strings.ToLower(name)
	t, ok := db.tables[key]
	if !ok {
		db.mu.Unlock()
		return fmt.Errorf("db: no table %q", name)
	}
	delete(db.tables, key)
	db.mu.Unlock()

	file := t.heap.FileID()
	// Discard outside db.mu: DiscardFile may wait on an in-flight eviction
	// write-back, and holding the catalog lock across that wait would stall
	// unrelated queries.
	if err := db.pool.DiscardFile(file); err != nil {
		return nil // dropped from the catalog; storage intentionally leaked
	}
	db.disk.TruncateFile(file)
	db.mu.Lock()
	db.freeFiles = append(db.freeFiles, file)
	db.mu.Unlock()
	return nil
}

// Table looks up a table by name (case-insensitive).
func (db *DB) Table(name string) (*Table, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[strings.ToLower(name)]
	return t, ok
}

// TableMeta implements plan.Catalog.
func (db *DB) TableMeta(name string) (plan.TableMeta, bool) {
	t, ok := db.Table(name)
	if !ok {
		return nil, false
	}
	return t, true
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema implements plan.TableMeta.
func (t *Table) Schema() tuple.Schema { return t.sch }

// RowCount implements plan.TableMeta.
func (t *Table) RowCount() int64 { return t.heap.NumRecords() }

// DistinctCount implements plan.TableMeta: the exact number of distinct
// values an integer column has held, 0 (no statistic) for a list column.
func (t *Table) DistinctCount(col int) int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if col < 0 || col >= len(t.distinct) || t.distinct[col] == nil {
		return 0
	}
	return t.distinct[col].Len()
}

// NewScan implements plan.TableMeta.
func (t *Table) NewScan() exec.Iterator { return exec.NewSeqScan(t.heap, t.sch) }

// Blocks implements plan.BlockMeta: the table's allocated page count, the
// B(t) the optimizer's cost nodes charge a sequential scan.
func (t *Table) Blocks() int64 { return int64(t.heap.NumPages()) }

// NewRangeScan implements plan.RangeMeta: a sequential scan restricted to
// the rows whose column hashes into residue rem modulo mod, with the
// restriction applied inside the heap-file scan callback.
func (t *Table) NewRangeScan(col int, mod, rem uint32) exec.Iterator {
	return &exec.SeqScan{Heap: t.heap, Sch: t.sch, Col: col, Mod: mod, Rem: rem}
}

// Heap exposes the underlying heap file (used by the in-database search).
func (t *Table) Heap() *storage.HeapFile { return t.heap }

// Insert appends one row.
func (t *Table) Insert(row tuple.Row) error {
	rec, err := tuple.Encode(t.sch, row)
	if err != nil {
		return fmt.Errorf("db: insert into %s: %w", t.name, err)
	}
	rid, err := t.heap.Insert(rec)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.noteRowLocked(row, rid)
	return nil
}

// noteRowLocked updates statistics and secondary indexes for a stored row.
func (t *Table) noteRowLocked(row tuple.Row, rid storage.RecordID) {
	for i, d := range t.distinct {
		if d != nil {
			d.Add(row[i].I)
		}
	}
	for col, idx := range t.hashIdx {
		idx.Insert(tuple.EncodeKey(row, []int{col}), rid)
	}
}

// InsertMany bulk-loads rows through the heap file's batched insert path
// (one page pin per page rather than per row) and updates statistics and
// indexes under a single lock acquisition.
func (t *Table) InsertMany(rows []tuple.Row) error {
	if len(rows) == 0 {
		return nil
	}
	recs := make([][]byte, len(rows))
	for i, r := range rows {
		rec, err := tuple.Encode(t.sch, r)
		if err != nil {
			return fmt.Errorf("db: insert into %s: %w", t.name, err)
		}
		recs[i] = rec
	}
	// InsertBatch returns the ids of the records it managed to store even on
	// error; register that prefix so the heap, statistics and indexes stay
	// consistent with each other whatever happens.
	rids, err := t.heap.InsertBatch(recs)
	t.mu.Lock()
	for i := range rids {
		t.noteRowLocked(rows[i], rids[i])
	}
	t.mu.Unlock()
	return err
}

// BuildHashIndex builds (or rebuilds) a hash index on the column position.
func (t *Table) BuildHashIndex(col int) (*index.HashIndex, error) {
	idx := index.NewHashIndex()
	err := t.heap.Scan(func(rid storage.RecordID, rec []byte) error {
		row, err := tuple.Decode(t.sch, rec)
		if err != nil {
			return err
		}
		idx.Insert(tuple.EncodeKey(row, []int{col}), rid)
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	t.hashIdx[col] = idx
	t.mu.Unlock()
	return idx, nil
}

// DropHashIndex deregisters the hash index on the column position,
// releasing its O(rows) in-memory footprint for future lookups. Holders of
// the index pointer (e.g. a search mid-flight) are unaffected.
func (t *Table) DropHashIndex(col int) {
	t.mu.Lock()
	delete(t.hashIdx, col)
	t.mu.Unlock()
}

// HashIndexOn returns the hash index on the column position if built.
func (t *Table) HashIndexOn(col int) (*index.HashIndex, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	idx, ok := t.hashIdx[col]
	return idx, ok
}

// Get decodes the row at rid; nil row if deleted.
func (t *Table) Get(rid storage.RecordID) (tuple.Row, error) {
	rec, err := t.heap.Get(rid)
	if err != nil || rec == nil {
		return nil, err
	}
	return tuple.Decode(t.sch, rec)
}

// UpdateMany overwrites the rows at rids in one batched pass (rids and rows
// are aligned; each page is pinned once per run of consecutive same-page
// rids) and swaps the secondary-index entries of every touched row. This is
// the set-oriented update path the in-database search uses to reuse
// side-table slots in place.
func (t *Table) UpdateMany(rids []storage.RecordID, rows []tuple.Row) error {
	if len(rids) != len(rows) {
		return fmt.Errorf("db: UpdateMany on %s: %d rids != %d rows", t.name, len(rids), len(rows))
	}
	if len(rids) == 0 {
		return nil
	}
	recs := make([][]byte, len(rows))
	for i, r := range rows {
		rec, err := tuple.Encode(t.sch, r)
		if err != nil {
			return fmt.Errorf("db: update %s: %w", t.name, err)
		}
		recs[i] = rec
	}
	// Reindex the prefix that was stored even on error so the indexes stay
	// consistent with the heap whatever happens.
	old, err := t.heap.UpdateBatch(rids, recs)
	if ierr := t.reindexRows(old, rids, rows); ierr != nil && err == nil {
		err = ierr
	}
	return err
}

// ReviveMany rewrites previously deleted rows' slots with new rows (rids
// and rows aligned, one page pin per same-page run), registering the new
// rows in statistics and secondary indexes. Together with DeleteMany it
// forms a free-slot list: a caller that remembers the rids it deleted can
// hand them back here and the table reuses their space instead of
// appending, holding the heap at its high-water row count under churn —
// the in-database search's violated-clause side table is the user.
func (t *Table) ReviveMany(rids []storage.RecordID, rows []tuple.Row) error {
	if len(rids) != len(rows) {
		return fmt.Errorf("db: ReviveMany on %s: %d rids != %d rows", t.name, len(rids), len(rows))
	}
	if len(rids) == 0 {
		return nil
	}
	recs := make([][]byte, len(rows))
	for i, r := range rows {
		rec, err := tuple.Encode(t.sch, r)
		if err != nil {
			return fmt.Errorf("db: revive into %s: %w", t.name, err)
		}
		recs[i] = rec
	}
	// Register the stored prefix even on error so statistics and indexes
	// stay consistent with the heap whatever happens.
	n, err := t.heap.ReviveBatch(rids, recs)
	t.mu.Lock()
	for i := 0; i < n; i++ {
		t.noteRowLocked(rows[i], rids[i])
	}
	t.mu.Unlock()
	return err
}

// DeleteMany removes the rows at rids in one batched pass (each page pinned
// once per run of consecutive same-page rids), dropping their secondary-
// index entries. Column-distinct statistics are upper-bound estimates and
// are not decremented.
func (t *Table) DeleteMany(rids []storage.RecordID) error {
	if len(rids) == 0 {
		return nil
	}
	old, err := t.heap.DeleteBatch(rids)
	if derr := t.deindexRecs(old, rids); derr != nil && err == nil {
		err = derr
	}
	return err
}

// reindexRows swaps index entries from the old record images to the new
// rows. old may be a prefix of rids/rows after a partial batch failure.
// Distinct statistics pick up the new values whether or not indexes exist,
// so planner estimates don't depend on index presence.
func (t *Table) reindexRows(old [][]byte, rids []storage.RecordID, rows []tuple.Row) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	hasIdx := len(t.hashIdx) > 0
	for i := range old {
		if hasIdx {
			oldRow, err := tuple.Decode(t.sch, old[i])
			if err != nil {
				return err
			}
			t.dropRowLocked(oldRow, rids[i])
		}
		t.noteRowLocked(rows[i], rids[i])
	}
	return nil
}

// deindexRecs drops index entries for deleted record images. old may be a
// prefix of rids after a partial batch failure.
func (t *Table) deindexRecs(old [][]byte, rids []storage.RecordID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.hashIdx) == 0 {
		return nil
	}
	for i := range old {
		row, err := tuple.Decode(t.sch, old[i])
		if err != nil {
			return err
		}
		t.dropRowLocked(row, rids[i])
	}
	return nil
}

// dropRowLocked removes a stored row's entries from all secondary indexes.
func (t *Table) dropRowLocked(row tuple.Row, rid storage.RecordID) {
	for col, idx := range t.hashIdx {
		idx.Delete(tuple.EncodeKey(row, []int{col}), rid)
	}
}

// ScanRows calls fn for each row with its record id.
func (t *Table) ScanRows(fn func(rid storage.RecordID, row tuple.Row) error) error {
	return t.heap.Scan(func(rid storage.RecordID, rec []byte) error {
		row, err := tuple.Decode(t.sch, rec)
		if err != nil {
			return err
		}
		return fn(rid, row)
	})
}

// Rows is a materialized query result.
type Rows struct {
	Schema tuple.Schema
	Data   []tuple.Row
}

func parseSelect(sql, caller string) (*plan.SelectStmt, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*plan.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("db: %s expects SELECT", caller)
	}
	return sel, nil
}

// Query parses, plans and executes a SELECT, materializing the result.
func (db *DB) Query(sql string) (*Rows, error) {
	sel, err := parseSelect(sql, "Query")
	if err != nil {
		return nil, err
	}
	res := &Rows{}
	res.Schema, err = db.selectEach(sel, func(row tuple.Row) error {
		res.Data = append(res.Data, row.Clone())
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// QueryEach parses, plans and executes a SELECT, calling fn on each output
// row in order; the row is only valid until fn returns, so a caller that
// keeps one must Clone it. An error from fn stops the query and is returned.
// ranges attach hash-range scan restrictions to the named range variables
// (there is no SQL syntax for them): running the same SQL once per residue
// 0..Mod-1 yields disjoint results whose union is exactly the unrestricted
// query — the partitioned-grounding contract.
func (db *DB) QueryEach(sql string, ranges []plan.HashRange, fn func(tuple.Row) error) error {
	sel, err := parseSelect(sql, "QueryEach")
	if err != nil {
		return err
	}
	sel.Ranges = append(sel.Ranges, ranges...)
	_, err = db.selectEach(sel, fn)
	return err
}

// selectEach runs a parsed SELECT, streaming its rows into fn, and returns
// the output schema.
func (db *DB) selectEach(sel *plan.SelectStmt, fn func(tuple.Row) error) (tuple.Schema, error) {
	it, err := plan.NewPlanner(db, db.PlanOptions()).Plan(sel)
	if err != nil {
		return tuple.Schema{}, err
	}
	// Close follows Open on every path: an Open that failed part-way (a
	// join's build side hitting an error) may hold open scans.
	defer it.Close()
	if err := it.Open(); err != nil {
		return tuple.Schema{}, err
	}
	for {
		row, ok, err := it.Next()
		if err != nil || !ok {
			return it.Schema(), err
		}
		if err := fn(row); err != nil {
			return it.Schema(), err
		}
	}
}

// EstimateQuery runs the optimizer on a SELECT without executing it and
// returns its Explain: join order, access paths and root cost estimates.
func (db *DB) EstimateQuery(sql string) (*plan.Explain, error) {
	sel, err := parseSelect(sql, "EstimateQuery")
	if err != nil {
		return nil, err
	}
	p := plan.NewPlanner(db, db.PlanOptions())
	return p.EstimateSelect(sel)
}

// Exec runs an UPDATE or DELETE and returns the number of affected rows.
func (db *DB) Exec(sql string) (int64, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return 0, err
	}
	switch s := stmt.(type) {
	case *plan.UpdateStmt:
		return db.execUpdate(s)
	case *plan.DeleteStmt:
		return db.execDelete(s)
	default:
		return 0, fmt.Errorf("db: Exec expects UPDATE or DELETE; use Query for SELECT")
	}
}

// wherePred compiles conjunctive conditions against a single table schema.
func wherePred(t *Table, where []plan.Cond) (exec.Expr, error) {
	if len(where) == 0 {
		return nil, nil
	}
	var preds []exec.Expr
	for _, c := range where {
		l, err := operandExpr(t, c.L)
		if err != nil {
			return nil, err
		}
		r, err := operandExpr(t, c.R)
		if err != nil {
			return nil, err
		}
		preds = append(preds, exec.Cmp{Op: c.Op, L: l, R: r})
	}
	if len(preds) == 1 {
		return preds[0], nil
	}
	return exec.And{Kids: preds}, nil
}

func operandExpr(t *Table, o plan.Operand) (exec.Expr, error) {
	if !o.IsCol {
		return exec.Const{Val: o.Val}, nil
	}
	idx := t.sch.ColIndex(o.Col)
	if idx < 0 {
		return nil, fmt.Errorf("db: no column %q in %s", o.Col, t.name)
	}
	return exec.ColRef{Idx: idx, Name: o.Col}, nil
}

func (db *DB) execUpdate(s *plan.UpdateStmt) (int64, error) {
	t, ok := db.Table(s.Table)
	if !ok {
		return 0, fmt.Errorf("db: no table %q", s.Table)
	}
	col := t.sch.ColIndex(s.Col)
	if col < 0 {
		return 0, fmt.Errorf("db: no column %q in %s", s.Col, s.Table)
	}
	if t.sch.Cols[col].Type != s.Val.Kind {
		return 0, fmt.Errorf("db: SET type mismatch on %s", s.Col)
	}
	pred, err := wherePred(t, s.Where)
	if err != nil {
		return 0, err
	}
	type match struct {
		rid storage.RecordID
		row tuple.Row
	}
	var matches []match
	err = t.ScanRows(func(rid storage.RecordID, row tuple.Row) error {
		ok, err := exec.EvalPred(pred, row)
		if err != nil {
			return err
		}
		if ok {
			matches = append(matches, match{rid, row.Clone()})
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	rids := make([]storage.RecordID, len(matches))
	rows := make([]tuple.Row, len(matches))
	for i, m := range matches {
		m.row[col] = s.Val
		rids[i], rows[i] = m.rid, m.row
	}
	if err := t.UpdateMany(rids, rows); err != nil {
		return 0, err
	}
	return int64(len(matches)), nil
}

func (db *DB) execDelete(s *plan.DeleteStmt) (int64, error) {
	t, ok := db.Table(s.Table)
	if !ok {
		return 0, fmt.Errorf("db: no table %q", s.Table)
	}
	pred, err := wherePred(t, s.Where)
	if err != nil {
		return 0, err
	}
	var rids []storage.RecordID
	err = t.ScanRows(func(rid storage.RecordID, row tuple.Row) error {
		ok, err := exec.EvalPred(pred, row)
		if err != nil {
			return err
		}
		if ok {
			rids = append(rids, rid)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	if err := t.DeleteMany(rids); err != nil {
		return 0, err
	}
	return int64(len(rids)), nil
}

// TableNames lists the catalog (sorted order not guaranteed).
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for _, t := range db.tables {
		out = append(out, t.name)
	}
	return out
}
