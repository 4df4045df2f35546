package exec

import (
	"tuffy/internal/db/tuple"
)

// The two join algorithms of the engine. The paper's lesion study (Table 6)
// shows that hash joins — not the optimizer's join ordering — account for
// Tuffy's grounding speed-up over Alchemy's nested loops, so the planner
// takes a hash join for every equi-join and can be pinned to nested loops.

// NestedLoopJoin joins by re-scanning the inner (right) input per outer row.
// The right child must support repeated Open/Close cycles. On is an optional
// residual predicate over the concatenated row; nil means cross product.
type NestedLoopJoin struct {
	Left, Right Iterator
	On          Expr

	sch      tuple.Schema
	leftRow  tuple.Row
	haveLeft bool
	out      tuple.Row
}

// NewNestedLoopJoin builds a nested-loop join.
func NewNestedLoopJoin(left, right Iterator, on Expr) *NestedLoopJoin {
	return &NestedLoopJoin{Left: left, Right: right, On: on,
		sch: left.Schema().Concat(right.Schema())}
}

// Open implements Iterator.
func (j *NestedLoopJoin) Open() error {
	if err := j.Left.Open(); err != nil {
		return err
	}
	j.haveLeft = false
	j.out = make(tuple.Row, j.sch.Arity())
	return nil
}

// Next implements Iterator.
func (j *NestedLoopJoin) Next() (tuple.Row, bool, error) {
	for {
		if !j.haveLeft {
			lrow, ok, err := j.Left.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			j.leftRow = lrow.Clone()
			j.haveLeft = true
			if err := j.Right.Open(); err != nil {
				return nil, false, err
			}
		}
		rrow, ok, err := j.Right.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			if err := j.Right.Close(); err != nil {
				return nil, false, err
			}
			j.haveLeft = false
			continue
		}
		copy(j.out, j.leftRow)
		copy(j.out[len(j.leftRow):], rrow)
		pass, err := EvalPred(j.On, j.out)
		if err != nil {
			return nil, false, err
		}
		if pass {
			return j.out, true, nil
		}
	}
}

// Close implements Iterator.
func (j *NestedLoopJoin) Close() error {
	if j.haveLeft {
		j.Right.Close()
		j.haveLeft = false
	}
	return j.Left.Close()
}

// Schema implements Iterator.
func (j *NestedLoopJoin) Schema() tuple.Schema { return j.sch }

// HashJoin is an equi-join: it builds a hash table on the right input keyed
// by RightKeys, then probes with LeftKeys. Residual is an optional extra
// predicate over the concatenated row.
//
// The table is chained and keyed by an integer hash of the key columns
// (keyHash), never by an encoded key string: build rows sit in one slice in
// arrival order, each bucket heads a chain through next in that same order,
// and a probe re-checks key equality on every entry whose hash matches. A
// left row's matches therefore come out in build-insertion order.
type HashJoin struct {
	Left, Right Iterator
	LeftKeys    []int
	RightKeys   []int
	Residual    Expr

	sch     tuple.Schema
	rows    []tuple.Row // build rows, in arrival order
	hashes  []uint64    // keyHash of rows[i]
	next    []int32     // next entry of rows[i]'s bucket chain, -1 at the end
	buckets []int32     // first entry per bucket (hash & mask), -1 if none
	mask    uint64
	probe   uint64 // hash of the current left row's key
	cur     int32  // next chain entry to test for the current left row
	leftRow tuple.Row
	out     tuple.Row
}

// NewHashJoin builds a hash join on the given key column positions.
func NewHashJoin(left, right Iterator, leftKeys, rightKeys []int, residual Expr) *HashJoin {
	return &HashJoin{Left: left, Right: right, LeftKeys: leftKeys, RightKeys: rightKeys,
		Residual: residual, sch: left.Schema().Concat(right.Schema()), cur: -1}
}

// keyHash mixes the HashValue of each key column into one 64-bit hash.
func keyHash(row tuple.Row, cols []int) uint64 {
	h := uint64(len(cols))
	for _, c := range cols {
		h = mix64(h ^ HashValue(row[c]))
	}
	return h
}

// keysEqual reports whether the key columns of a and b hold equal values.
func keysEqual(a tuple.Row, acols []int, b tuple.Row, bcols []int) bool {
	for i, c := range acols {
		if !a[c].Equal(b[bcols[i]]) {
			return false
		}
	}
	return true
}

// Open implements Iterator; it materializes the build side.
func (j *HashJoin) Open() error {
	if err := j.Left.Open(); err != nil {
		return err
	}
	if err := j.Right.Open(); err != nil {
		return err
	}
	j.rows, j.hashes = j.rows[:0], j.hashes[:0]
	for {
		row, ok, err := j.Right.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		j.rows = append(j.rows, row.Clone())
		j.hashes = append(j.hashes, keyHash(row, j.RightKeys))
	}
	if err := j.Right.Close(); err != nil {
		return err
	}
	size := 1
	for size < len(j.rows) {
		size <<= 1
	}
	j.mask = uint64(size - 1)
	j.buckets = make([]int32, size)
	for i := range j.buckets {
		j.buckets[i] = -1
	}
	// Chaining from the last row back leaves every chain in arrival order.
	j.next = make([]int32, len(j.rows))
	for i := len(j.rows) - 1; i >= 0; i-- {
		b := j.hashes[i] & j.mask
		j.next[i] = j.buckets[b]
		j.buckets[b] = int32(i)
	}
	j.cur = -1
	j.out = make(tuple.Row, j.sch.Arity())
	return nil
}

// Next implements Iterator.
func (j *HashJoin) Next() (tuple.Row, bool, error) {
	for {
		for j.cur >= 0 {
			i := j.cur
			j.cur = j.next[i]
			if j.hashes[i] != j.probe || !keysEqual(j.leftRow, j.LeftKeys, j.rows[i], j.RightKeys) {
				continue
			}
			copy(j.out[len(j.leftRow):], j.rows[i])
			pass, err := EvalPred(j.Residual, j.out)
			if err != nil {
				return nil, false, err
			}
			if pass {
				return j.out, true, nil
			}
		}
		lrow, ok, err := j.Left.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		// The left child keeps lrow intact until its next Next, which comes
		// only once this row's chain is exhausted: no clone is needed.
		j.leftRow = lrow
		copy(j.out, lrow)
		j.probe = keyHash(lrow, j.LeftKeys)
		j.cur = j.buckets[j.probe&j.mask]
	}
}

// Close implements Iterator.
func (j *HashJoin) Close() error {
	j.rows, j.hashes, j.next, j.buckets = nil, nil, nil, nil
	j.cur = -1
	return j.Left.Close()
}

// Schema implements Iterator.
func (j *HashJoin) Schema() tuple.Schema { return j.sch }
