package plan

import (
	"strings"

	"tuffy/internal/db/exec"
)

// Plan is the cost-model node the optimizer reasons over (the classic
// B(s)/R(s)/V(s,F) interface). Every access path and join operator the
// planner can choose is mirrored by a Plan node; the planner compares
// candidate nodes' costs and only then builds the executable iterator for
// the winner.
type Plan interface {
	// BlocksAccessed estimates the number of page reads the node performs.
	BlocksAccessed() int64
	// RecordsOutput estimates the node's output cardinality.
	RecordsOutput() int64
	// DistinctValues estimates the number of distinct values of an
	// alias-qualified column ("t0.a1") in the node's output; 0 when the
	// column does not belong to the node.
	DistinctValues(col string) int64
}

// BlockMeta is an optional TableMeta extension reporting the table's
// physical page count. Tables that do not implement it are costed at
// defaultRowsPerBlock rows per page.
type BlockMeta interface {
	Blocks() int64
}

// RangeMeta is an optional TableMeta extension that pushes a hash-range
// restriction into the storage scan itself (rows whose column hashes into
// residue rem modulo mod), so partitioned scans never materialize the rows
// they discard.
type RangeMeta interface {
	NewRangeScan(col int, mod, rem uint32) exec.Iterator
}

// HashRange restricts one FROM item to the rows whose column hashes into
// residue Rem modulo Mod (see exec.HashValue). Attached to a SelectStmt it
// lets a caller partition one query's work into Mod disjoint parts whose
// union is exactly the unrestricted result — the intra-clause parallel
// grounder's mechanism.
type HashRange struct {
	Table string // range-variable (alias) name the restriction applies to
	Col   string // column name within that table
	Mod   uint32
	Rem   uint32
}

// Explain records the optimizer's choices for one SELECT: the join order,
// the access path per range variable, and the root cost estimates. It is
// the surface the planner tests assert against and the grounding scheduler
// uses to find a query's dominant cost.
type Explain struct {
	// JoinOrder lists range-variable names in the order they are joined
	// (left-deep).
	JoinOrder []string
	// Access maps each range-variable name to its access path: "seqscan",
	// or "seqscan+range" when a hash-range restriction applies to it.
	Access map[string]string
	// EstRows and EstBlocks are the root Plan node's estimates.
	EstRows   int64
	EstBlocks int64
}

// defaultRowsPerBlock is the page-capacity guess used for TableMeta
// implementations without physical block counts.
const defaultRowsPerBlock = 64

// tableBlocks returns the page count of a base table, preferring the
// storage layer's real number.
func tableBlocks(meta TableMeta) int64 {
	if bm, ok := meta.(BlockMeta); ok {
		if b := bm.Blocks(); b > 0 {
			return b
		}
	}
	b := meta.RowCount() / defaultRowsPerBlock
	if b < 1 {
		b = 1
	}
	return b
}

// accessPlan is the Plan node for one base-relation access path: a
// sequential scan, optionally hash-range restricted.
type accessPlan struct {
	alias  string
	meta   TableMeta
	rows   int64
	blocks int64
	// rangeDiv is the Mod of an attached hash-range restriction (1 = none).
	rangeDiv int64
}

func (a *accessPlan) BlocksAccessed() int64 { return a.blocks }
func (a *accessPlan) RecordsOutput() int64  { return a.rows }

func (a *accessPlan) DistinctValues(col string) int64 {
	alias, bare, ok := splitQualified(col)
	if !ok || !strings.EqualFold(alias, a.alias) {
		return 0
	}
	idx := a.meta.Schema().ColIndex(bare)
	if idx < 0 {
		return 0
	}
	v := a.meta.DistinctCount(idx)
	if v <= 0 {
		v = a.meta.RowCount()
	}
	if v > a.rows {
		v = a.rows
	}
	if v < 1 {
		v = 1
	}
	return v
}

func (a *accessPlan) describe() string {
	if a.rangeDiv > 1 {
		return "seqscan+range"
	}
	return "seqscan"
}

// joinCostPlan is the Plan node for one (left-deep) join step. Costs model
// the hash join the planner prefers: both inputs are read once, and the
// output cardinality divides the cross product by the largest distinct
// count of each equi-join column pair (the textbook V(s,F) estimate).
type joinCostPlan struct {
	left, right Plan
	rows        int64
	blocks      int64
}

// newJoinCostPlan costs joining right onto left under the given equi-join
// column pairs (alias-qualified names; empty means cross product) and
// non-equi condition count.
func newJoinCostPlan(left, right Plan, eqPairs [][2]string, nonEq int) *joinCostPlan {
	rows := float64(left.RecordsOutput()) * float64(right.RecordsOutput())
	for _, pr := range eqPairs {
		d := left.DistinctValues(pr[0])
		if d == 0 {
			d = right.DistinctValues(pr[0])
		}
		d2 := right.DistinctValues(pr[1])
		if d2 == 0 {
			d2 = left.DistinctValues(pr[1])
		}
		if d2 > d {
			d = d2
		}
		if d > 1 {
			rows /= float64(d)
		}
	}
	for i := 0; i < nonEq; i++ {
		rows /= 3
	}
	if rows < 1 {
		rows = 1
	}
	return &joinCostPlan{
		left:   left,
		right:  right,
		rows:   int64(rows),
		blocks: left.BlocksAccessed() + right.BlocksAccessed(),
	}
}

func (j *joinCostPlan) BlocksAccessed() int64 { return j.blocks }
func (j *joinCostPlan) RecordsOutput() int64  { return j.rows }

func (j *joinCostPlan) DistinctValues(col string) int64 {
	v := j.left.DistinctValues(col)
	if v == 0 {
		v = j.right.DistinctValues(col)
	}
	if v > j.rows {
		v = j.rows
	}
	return v
}

// splitQualified splits "alias.col" into its parts.
func splitQualified(col string) (alias, bare string, ok bool) {
	i := strings.LastIndexByte(col, '.')
	if i <= 0 || i == len(col)-1 {
		return "", "", false
	}
	return col[:i], col[i+1:], true
}
