package mrf

import (
	"fmt"
	"math"
	"sync/atomic"

	"tuffy/internal/db"
	"tuffy/internal/db/storage"
	"tuffy/internal/db/tuple"
)

// tableSeq backs QueryTableName: a process-wide counter so every caller
// gets a catalog name no concurrent (or earlier) query can collide with.
var tableSeq atomic.Int64

// QueryTableName returns a collision-free table name with the given prefix.
// Concurrent inference queries over one engine use it to keep their
// per-query clause and helper tables disjoint in the catalog; pairing each
// name with a DropTable when the query ends returns the pages to the
// engine's free list, so repeated queries hold storage at its high-water
// mark.
func QueryTableName(prefix string) string {
	return fmt.Sprintf("%s_q%d", prefix, tableSeq.Add(1))
}

// This file moves MRFs between memory and the RDBMS clause table — the
// boundary of the paper's hybrid architecture (Section 3.2): grounding
// leaves its result in the database table C(cid, lits, weight); in-memory
// search loads it; the in-database search variant (Tuffy-mm) operates on it
// directly.

// ClauseTableSchema is the layout of the ground-clause table. Weights are
// stored as IEEE-754 bit patterns in a BIGINT since the engine has no float
// column type; lits is the signed atom-id array, exactly as the paper
// describes.
func ClauseTableSchema() tuple.Schema {
	return tuple.NewSchema(
		tuple.Col("cid", tuple.TInt),
		tuple.Col("weight", tuple.TInt),
		tuple.Col("lits", tuple.TIntList),
	)
}

// ViolTableSchema is the layout of the violated-clause side table maintained
// by the set-oriented in-database search: one row per currently-violated
// clause. All columns are fixed-width BIGINTs so a transition can reuse a
// to-be-deleted slot in place with an UpdateAt instead of growing the heap
// with a tombstone + append.
func ViolTableSchema() tuple.Schema {
	return tuple.NewSchema(
		tuple.Col("cid", tuple.TInt),
		tuple.Col("weight", tuple.TInt),
		tuple.Col("is_hard", tuple.TInt),
	)
}

// ViolRow converts a violated clause to its side-table row.
func ViolRow(cid int64, c Clause) tuple.Row {
	hard := int64(0)
	if c.IsHard() {
		hard = 1
	}
	return tuple.Row{
		tuple.I64(cid),
		tuple.I64(int64(math.Float64bits(c.Weight))),
		tuple.I64(hard),
	}
}

// RowViol decodes a side-table row back to (cid, weight, isHard).
func RowViol(row tuple.Row) (cid int64, weight float64, isHard bool, err error) {
	if len(row) != 3 || row[0].Kind != tuple.TInt || row[1].Kind != tuple.TInt || row[2].Kind != tuple.TInt {
		return 0, 0, false, fmt.Errorf("mrf: malformed violated-clause row %v", row)
	}
	return row[0].I, math.Float64frombits(uint64(row[1].I)), row[2].I != 0, nil
}

// AtomIndexSchema is the layout of the atom→clause inverted-index table the
// in-database search builds once at search start: rows (aid, cids) carrying
// the ids of clauses that mention the atom, in ascending-cid order. High-
// degree atoms span several chunk rows (inserted in order, so concatenating
// a scan's chunks preserves the order).
func AtomIndexSchema() tuple.Schema {
	return tuple.NewSchema(
		tuple.Col("aid", tuple.TInt),
		tuple.Col("cids", tuple.TIntList),
	)
}

// AtomIndexRow converts one atom's clause-id chunk to its table row.
func AtomIndexRow(aid int64, cids []int64) tuple.Row {
	return tuple.Row{tuple.I64(aid), tuple.IntList(cids)}
}

// RowAtomIndex decodes an inverted-index row back to (aid, cids).
func RowAtomIndex(row tuple.Row) (aid int64, cids []int64, err error) {
	if len(row) != 2 || row[0].Kind != tuple.TInt || row[1].Kind != tuple.TIntList {
		return 0, nil, fmt.Errorf("mrf: malformed atom-index row %v", row)
	}
	return row[0].I, row[1].List, nil
}

// ClauseRow converts a ground clause to its table row.
func ClauseRow(cid int64, c Clause) tuple.Row {
	lits := make([]int64, len(c.Lits))
	for j, l := range c.Lits {
		lits[j] = int64(l)
	}
	return tuple.Row{
		tuple.I64(cid),
		tuple.I64(int64(math.Float64bits(c.Weight))),
		tuple.IntList(lits),
	}
}

// RowClause converts a clause-table row back to a ground clause.
func RowClause(row tuple.Row) (Clause, error) {
	if len(row) != 3 || row[1].Kind != tuple.TInt || row[2].Kind != tuple.TIntList {
		return Clause{}, fmt.Errorf("mrf: malformed clause row %v", row)
	}
	lits := make([]Lit, len(row[2].List))
	for i, l := range row[2].List {
		lits[i] = Lit(l)
	}
	return Clause{Weight: math.Float64frombits(uint64(row[1].I)), Lits: lits}, nil
}

// Store writes the MRF's clauses into tableName (created if absent),
// replacing previous contents.
func Store(m *MRF, d *db.DB, tableName string) error {
	t, ok := d.Table(tableName)
	if !ok {
		var err error
		t, err = d.CreateTable(tableName, ClauseTableSchema())
		if err != nil {
			return err
		}
	} else if _, err := d.Exec("DELETE FROM " + tableName); err != nil {
		return err
	}
	for i := range m.W {
		if err := t.Insert(ClauseRow(int64(i), m.Clause(i))); err != nil {
			return err
		}
	}
	return nil
}

// Load reads a clause table back into an in-memory MRF. numAtoms may be 0,
// in which case it is inferred from the largest atom id seen.
func Load(d *db.DB, tableName string, numAtoms int) (*MRF, error) {
	t, ok := d.Table(tableName)
	if !ok {
		return nil, fmt.Errorf("mrf: no clause table %q", tableName)
	}
	m := New(numAtoms)
	maxAtom := int32(numAtoms)
	err := t.ScanRows(func(_ storage.RecordID, row tuple.Row) error {
		c, err := RowClause(row)
		if err != nil {
			return err
		}
		for _, l := range c.Lits {
			if a := Atom(l); a > maxAtom {
				maxAtom = a
			}
		}
		m.Append(c.Weight, c.Lits)
		return nil
	})
	if err != nil {
		return nil, err
	}
	m.NumAtoms = int(maxAtom)
	return m, nil
}
