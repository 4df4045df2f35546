// Package exec implements the Volcano-style executor of the relational
// engine: sequential scans (optionally hash-range restricted), filters,
// projections, two join algorithms (nested-loop and hash) and sorting.
// Operators consume and produce tuple.Row values via the Iterator
// interface; expressions (column references, constants, = and <>
// comparisons and conjunctions) evaluate over rows.
package exec

import (
	"fmt"

	"tuffy/internal/db/tuple"
)

// Expr is a scalar expression over a row. Boolean results are TInt 0/1.
type Expr interface {
	Eval(row tuple.Row) (tuple.Value, error)
	String() string
}

// ColRef references a column of the input row by position.
type ColRef struct {
	Idx  int
	Name string
}

// Eval implements Expr.
func (c ColRef) Eval(row tuple.Row) (tuple.Value, error) {
	if c.Idx < 0 || c.Idx >= len(row) {
		return tuple.Value{}, fmt.Errorf("exec: column %d out of range (row arity %d)", c.Idx, len(row))
	}
	return row[c.Idx], nil
}

func (c ColRef) String() string {
	if c.Name != "" {
		return c.Name
	}
	return fmt.Sprintf("$%d", c.Idx)
}

// Const is a literal value.
type Const struct {
	Val tuple.Value
}

// Eval implements Expr.
func (c Const) Eval(tuple.Row) (tuple.Value, error) { return c.Val, nil }

func (c Const) String() string { return c.Val.String() }

// CmpOp enumerates comparison operators: the grounding SQL compares only
// for equality and inequality.
type CmpOp int

const (
	CmpEq CmpOp = iota
	CmpNe
)

func (op CmpOp) String() string {
	if op == CmpNe {
		return "<>"
	}
	return "="
}

// Cmp compares two sub-expressions.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// Eval implements Expr.
func (c Cmp) Eval(row tuple.Row) (tuple.Value, error) {
	l, err := c.L.Eval(row)
	if err != nil {
		return tuple.Value{}, err
	}
	r, err := c.R.Eval(row)
	if err != nil {
		return tuple.Value{}, err
	}
	if l.Kind != r.Kind {
		return tuple.Value{}, fmt.Errorf("exec: comparing %v with %v", l.Kind, r.Kind)
	}
	return boolVal(l.Equal(r) == (c.Op == CmpEq)), nil
}

func (c Cmp) String() string { return fmt.Sprintf("%s %s %s", c.L, c.Op, c.R) }

// And is an n-ary conjunction.
type And struct {
	Kids []Expr
}

// Eval implements Expr.
func (a And) Eval(row tuple.Row) (tuple.Value, error) {
	for _, k := range a.Kids {
		v, err := k.Eval(row)
		if err != nil {
			return tuple.Value{}, err
		}
		if !truthy(v) {
			return boolVal(false), nil
		}
	}
	return boolVal(true), nil
}

func (a And) String() string {
	s := ""
	for i, k := range a.Kids {
		if i > 0 {
			s += " AND "
		}
		s += k.String()
	}
	return s
}

func boolVal(b bool) tuple.Value {
	if b {
		return tuple.I64(1)
	}
	return tuple.I64(0)
}

func truthy(v tuple.Value) bool { return v.Kind == tuple.TInt && v.I != 0 }

// EvalPred evaluates e as a predicate over row.
func EvalPred(e Expr, row tuple.Row) (bool, error) {
	if e == nil {
		return true, nil
	}
	v, err := e.Eval(row)
	if err != nil {
		return false, err
	}
	return truthy(v), nil
}
