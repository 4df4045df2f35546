package search

import (
	"fmt"

	"tuffy/internal/db"
	"tuffy/internal/db/storage"
	"tuffy/internal/db/tuple"
	"tuffy/internal/mrf"
	"tuffy/internal/partition"
)

// PartitionClauseDB keeps every partition's internal clauses in
// per-partition RDBMS tables and serves them back through the buffer pool —
// the disk-resident side of Section 3.4's batch scheme: when the grounded
// MRF exceeds RAM, only the atom assignment and the cut structure stay
// memory-resident while each partition's clause data is re-read from the
// database on every Gauss-Seidel visit. Because the heap scan returns rows
// in insertion order and weights round-trip as IEEE-754 bit patterns, a
// search over loaded clauses is bit-identical to one over the RAM copies.
//
// Concurrent LoadClauses calls from one color class overlap their page I/O
// in the shared buffer pool (the pool reads outside its lock on
// pin-protected frames), which is what lets parallel rounds beat the
// sequential sweep even when the workload is I/O-bound.
type PartitionClauseDB struct {
	tables []*db.Table
}

// StorePartitions writes each partition's internal clauses (in local atom
// ids) into tables named prefix_<i>, replacing previous contents.
func StorePartitions(d *db.DB, pt *partition.Partitioning, prefix string) (*PartitionClauseDB, error) {
	s := &PartitionClauseDB{tables: make([]*db.Table, len(pt.Parts))}
	for pi, p := range pt.Parts {
		name := fmt.Sprintf("%s_%d", prefix, pi)
		if err := mrf.Store(p.Local, d, name); err != nil {
			return nil, fmt.Errorf("search: store partition %d: %w", pi, err)
		}
		t, ok := d.Table(name)
		if !ok {
			return nil, fmt.Errorf("search: partition table %s vanished", name)
		}
		s.tables[pi] = t
	}
	return s, nil
}

// LoadClauses scans partition pi's table back into into.
func (s *PartitionClauseDB) LoadClauses(pi int, into *mrf.MRF) error {
	if pi < 0 || pi >= len(s.tables) {
		return fmt.Errorf("search: no partition table %d", pi)
	}
	return s.tables[pi].ScanRows(func(_ storage.RecordID, row tuple.Row) error {
		c, cerr := mrf.RowClause(row)
		if cerr != nil {
			return cerr
		}
		into.Append(c.Weight, c.Lits)
		return nil
	})
}
