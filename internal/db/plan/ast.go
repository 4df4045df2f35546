// Package plan turns parsed SQL statements into executable operator trees.
// It implements the relational-optimizer features the Tuffy paper credits
// for its grounding speed-up (Section 4.2 and Appendix C.2): predicate
// pushdown, cost-based join ordering, and hash joins for equi-joins with
// nested loops for the rest. Decisions are made by comparing Plan cost
// nodes — the classic
// BlocksAccessed/RecordsOutput/DistinctValues interface — fed by the
// catalog's per-table row and distinct statistics; EstimateSelect exposes
// the resulting Explain (join order, access paths, root estimates) without
// executing anything. A SelectStmt may also carry HashRange restrictions
// that partition one query into disjoint hash ranges of a column, which is
// how the grounder fans a single clause's join out across workers. The
// paper's lesion study (Table 6) is reproduced through the Options knobs:
// ForceJoinOrder pins the FROM order, NestedLoopOnly disables hash joins.
package plan

import (
	"fmt"

	"tuffy/internal/db/exec"
	"tuffy/internal/db/tuple"
)

// Operand is one side of a condition: a column reference or a literal.
type Operand struct {
	IsCol bool
	Table string // alias (may be empty if unambiguous)
	Col   string
	Val   tuple.Value
}

// ColOp makes a column operand.
func ColOp(table, col string) Operand { return Operand{IsCol: true, Table: table, Col: col} }

// ValOp makes a literal operand.
func ValOp(v tuple.Value) Operand { return Operand{Val: v} }

func (o Operand) String() string {
	if o.IsCol {
		if o.Table != "" {
			return o.Table + "." + o.Col
		}
		return o.Col
	}
	return o.Val.String()
}

// Cond is a binary comparison in a WHERE conjunction.
type Cond struct {
	Op   exec.CmpOp
	L, R Operand
}

func (c Cond) String() string { return fmt.Sprintf("%s %s %s", c.L, c.Op, c.R) }

// ProjItem is one item of a SELECT list: a column, optionally renamed.
type ProjItem struct {
	Col   Operand
	Alias string
}

// FromItem names a base table with an optional alias.
type FromItem struct {
	Table string
	Alias string
}

// Name returns the effective range-variable name.
func (f FromItem) Name() string {
	if f.Alias != "" {
		return f.Alias
	}
	return f.Table
}

// SelectStmt is the supported SELECT shape: column projections over a
// conjunctive join of base tables, optionally ordered.
type SelectStmt struct {
	Proj    []ProjItem
	From    []FromItem
	Where   []Cond
	OrderBy []Operand
	// Ranges restricts FROM items to hash ranges of a column. There is no
	// SQL syntax for it; callers partitioning a query (db.QueryEach)
	// attach restrictions out of band.
	Ranges []HashRange
}

// UpdateStmt sets one column to a constant on rows matching conjunctive
// conditions (enough for in-database search state updates).
type UpdateStmt struct {
	Table string
	Col   string
	Val   tuple.Value
	Where []Cond
}

// DeleteStmt removes rows matching conjunctive conditions.
type DeleteStmt struct {
	Table string
	Where []Cond
}

// Statement is a parsed SQL statement (one of the concrete types above).
type Statement interface{ stmt() }

func (*SelectStmt) stmt() {}
func (*UpdateStmt) stmt() {}
func (*DeleteStmt) stmt() {}
