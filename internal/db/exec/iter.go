package exec

import (
	"fmt"
	"sort"

	"tuffy/internal/db/storage"
	"tuffy/internal/db/tuple"
)

// Iterator is the Volcano operator interface. Open must be called before
// Next; Next returns (row, true, nil) per tuple and (nil, false, nil) at end
// of stream; Close releases resources. Rows returned by Next may be reused
// by the operator on subsequent calls unless documented otherwise; callers
// that retain rows must Clone them.
type Iterator interface {
	Open() error
	Next() (tuple.Row, bool, error)
	Close() error
	Schema() tuple.Schema
}

// SeqScan reads every live record of a heap file. With Mod > 0 it keeps
// only the rows whose column Col hashes into residue Rem modulo Mod (a
// hash-range restriction, see HashValue), tested inside the storage scan
// callback before a row is kept, so a partitioned scan's transient
// footprint is 1/Mod of the table rather than all of it.
type SeqScan struct {
	Heap     *storage.HeapFile
	Sch      tuple.Schema
	Col      int
	Mod, Rem uint32

	rows    []tuple.Row
	nextIdx int
	opened  bool
}

// NewSeqScan constructs a sequential scan.
func NewSeqScan(heap *storage.HeapFile, sch tuple.Schema) *SeqScan {
	return &SeqScan{Heap: heap, Sch: sch}
}

// Open implements Iterator. The scan materializes page-by-page through the
// buffer pool; decoding happens eagerly so that page pins are short-lived.
func (s *SeqScan) Open() error {
	s.rows = s.rows[:0]
	s.nextIdx = 0
	s.opened = true
	if s.Mod > 0 && (s.Col < 0 || s.Col >= s.Sch.Arity()) {
		return fmt.Errorf("exec: SeqScan hash range on column %d of %d", s.Col, s.Sch.Arity())
	}
	return s.Heap.Scan(func(_ storage.RecordID, rec []byte) error {
		row, err := tuple.Decode(s.Sch, rec)
		if err != nil {
			return err
		}
		if s.Mod > 0 && uint32(HashValue(row[s.Col])%uint64(s.Mod)) != s.Rem {
			return nil
		}
		s.rows = append(s.rows, row)
		return nil
	})
}

// Next implements Iterator.
func (s *SeqScan) Next() (tuple.Row, bool, error) {
	if !s.opened {
		return nil, false, fmt.Errorf("exec: SeqScan.Next before Open")
	}
	if s.nextIdx >= len(s.rows) {
		return nil, false, nil
	}
	row := s.rows[s.nextIdx]
	s.nextIdx++
	return row, true, nil
}

// Close implements Iterator.
func (s *SeqScan) Close() error {
	s.rows = nil
	s.opened = false
	return nil
}

// Schema implements Iterator.
func (s *SeqScan) Schema() tuple.Schema { return s.Sch }

// Filter passes through rows satisfying Pred.
type Filter struct {
	Child Iterator
	Pred  Expr
}

// NewFilter wraps child with a predicate.
func NewFilter(child Iterator, pred Expr) *Filter {
	return &Filter{Child: child, Pred: pred}
}

// Open implements Iterator.
func (f *Filter) Open() error { return f.Child.Open() }

// Next implements Iterator.
func (f *Filter) Next() (tuple.Row, bool, error) {
	for {
		row, ok, err := f.Child.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		pass, err := EvalPred(f.Pred, row)
		if err != nil {
			return nil, false, err
		}
		if pass {
			return row, true, nil
		}
	}
}

// Close implements Iterator.
func (f *Filter) Close() error { return f.Child.Close() }

// Schema implements Iterator.
func (f *Filter) Schema() tuple.Schema { return f.Child.Schema() }

// Project computes output expressions per row.
type Project struct {
	Child Iterator
	Exprs []Expr
	Sch   tuple.Schema
	out   tuple.Row
}

// NewProject builds a projection; names gives output column names.
func NewProject(child Iterator, exprs []Expr, names []string) (*Project, error) {
	if len(exprs) != len(names) {
		return nil, fmt.Errorf("exec: %d exprs, %d names", len(exprs), len(names))
	}
	// Output types are inferred by probing with a zero row at Open; store
	// schema lazily. For column refs we can compute now.
	cols := make([]tuple.Column, len(exprs))
	childSch := child.Schema()
	for i, e := range exprs {
		t := tuple.TInt
		switch ex := e.(type) {
		case ColRef:
			if ex.Idx >= 0 && ex.Idx < childSch.Arity() {
				t = childSch.Cols[ex.Idx].Type
			}
		case Const:
			t = ex.Val.Kind
		}
		cols[i] = tuple.Column{Name: names[i], Type: t}
	}
	return &Project{Child: child, Exprs: exprs, Sch: tuple.Schema{Cols: cols}}, nil
}

// Open implements Iterator.
func (p *Project) Open() error {
	p.out = make(tuple.Row, len(p.Exprs))
	return p.Child.Open()
}

// Next implements Iterator.
func (p *Project) Next() (tuple.Row, bool, error) {
	row, ok, err := p.Child.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	for i, e := range p.Exprs {
		v, err := e.Eval(row)
		if err != nil {
			return nil, false, err
		}
		p.out[i] = v
	}
	return p.out, true, nil
}

// Close implements Iterator.
func (p *Project) Close() error { return p.Child.Close() }

// Schema implements Iterator.
func (p *Project) Schema() tuple.Schema { return p.Sch }

// Sort materializes the child and emits rows ordered by the given columns
// (ascending).
type Sort struct {
	Child Iterator
	Cols  []int

	rows []tuple.Row
	idx  int
}

// NewSort builds an in-memory sort on the given column positions.
func NewSort(child Iterator, cols []int) *Sort {
	return &Sort{Child: child, Cols: cols}
}

// Open implements Iterator.
func (s *Sort) Open() error {
	if err := s.Child.Open(); err != nil {
		return err
	}
	s.rows = s.rows[:0]
	s.idx = 0
	for {
		row, ok, err := s.Child.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		s.rows = append(s.rows, row.Clone())
	}
	sort.SliceStable(s.rows, func(i, j int) bool {
		return compareRows(s.rows[i], s.rows[j], s.Cols) < 0
	})
	return nil
}

func compareRows(a, b tuple.Row, cols []int) int {
	for _, c := range cols {
		if cv := a[c].Compare(b[c]); cv != 0 {
			return cv
		}
	}
	return 0
}

// Next implements Iterator.
func (s *Sort) Next() (tuple.Row, bool, error) {
	if s.idx >= len(s.rows) {
		return nil, false, nil
	}
	r := s.rows[s.idx]
	s.idx++
	return r, true, nil
}

// Close implements Iterator.
func (s *Sort) Close() error {
	s.rows = nil
	return s.Child.Close()
}

// Schema implements Iterator.
func (s *Sort) Schema() tuple.Schema { return s.Child.Schema() }
