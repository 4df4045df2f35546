package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tuffy/internal/db/tuple"
)

// stringKeyedHashJoin is the hash join HashJoin replaced, kept as the
// reference for its output order: a map from the EncodeKey string of the
// right key columns to the right rows in arrival order, probed per left row.
func stringKeyedHashJoin(left, right []tuple.Row, lk, rk []int, residual Expr) ([]tuple.Row, error) {
	table := make(map[string][]tuple.Row)
	for _, row := range right {
		k := tuple.EncodeKey(row, rk)
		table[k] = append(table[k], row)
	}
	var out []tuple.Row
	for _, l := range left {
		for _, m := range table[tuple.EncodeKey(l, lk)] {
			row := append(l.Clone(), m...)
			pass, err := EvalPred(residual, row)
			if err != nil {
				return nil, err
			}
			if pass {
				out = append(out, row)
			}
		}
	}
	return out, nil
}

// randomJoinTable draws n rows of nkeys key columns from a domain of size
// dom (small, so keys repeat heavily) plus one payload column; with list set
// the last key column is an integer list.
func randomJoinTable(rng *rand.Rand, n, nkeys, dom int, list bool, payload int64) (tuple.Schema, []tuple.Row) {
	cols := make([]tuple.Column, nkeys+1)
	for k := 0; k < nkeys; k++ {
		cols[k] = tuple.Col(fmt.Sprintf("k%d", k), tuple.TInt)
	}
	if list {
		cols[nkeys-1].Type = tuple.TIntList
	}
	cols[nkeys] = tuple.Col("v", tuple.TInt)
	rows := make([]tuple.Row, n)
	for i := range rows {
		row := make(tuple.Row, nkeys+1)
		for k := 0; k < nkeys; k++ {
			row[k] = tuple.I64(int64(rng.Intn(dom)) - 1)
		}
		if list {
			row[nkeys-1] = tuple.IntList([][]int64{nil, {1}, {1, 0}, {1, 2}, {2}}[rng.Intn(min(dom, 5))])
		}
		row[nkeys] = tuple.I64(payload + int64(i))
		rows[i] = row
	}
	return tuple.Schema{Cols: cols}, rows
}

// sameMultiset reports whether two row lists hold the same rows, counted.
func sameMultiset(a, b []tuple.Row) bool {
	key := func(rows []tuple.Row) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = fmt.Sprint(r)
		}
		slices.Sort(out)
		return out
	}
	return slices.Equal(key(a), key(b))
}

// TestHashJoinDifferential: on random tables with one to three key columns,
// heavy key duplication and an integer-list key, the hash, nested-loop and merge
// joins return the same row multiset, and the hash join returns exactly the
// string-keyed reference's row order. The left input is projected, so its
// rows are reused buffers, as a plan's inner operators hand them out.
func TestHashJoinDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 60; trial++ {
		nkeys := 1 + trial%3
		list := trial%4 == 3
		dom := 1 + rng.Intn(4)
		lsch, lrows := randomJoinTable(rng, rng.Intn(40), nkeys, dom, list, 0)
		rsch, rrows := randomJoinTable(rng, rng.Intn(40), nkeys, dom, list, 1000)
		keys := make([]int, nkeys)
		var on []Expr
		for k := range keys {
			keys[k] = k
			on = append(on, Cmp{CmpEq, ColRef{Idx: k}, ColRef{Idx: nkeys + 1 + k}})
		}
		// Every other trial carries a residual over the two payloads.
		var residual Expr
		if trial%2 == 1 {
			residual = Cmp{CmpNe, ColRef{Idx: nkeys}, Const{tuple.I64(3)}}
			on = append(on, residual)
		}
		reused := func() Iterator {
			exprs := make([]Expr, len(lsch.Cols))
			names := make([]string, len(lsch.Cols))
			for i, c := range lsch.Cols {
				exprs[i], names[i] = ColRef{Idx: i, Name: c.Name}, c.Name
			}
			p, err := NewProject(NewValues(lsch, lrows), exprs, names)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}

		want, err := stringKeyedHashJoin(lrows, rrows, keys, keys, residual)
		if err != nil {
			t.Fatal(err)
		}
		hj, err := Collect(NewHashJoin(reused(), NewValues(rsch, rrows), keys, keys, residual))
		if err != nil {
			t.Fatal(err)
		}
		if len(hj) != len(want) || (len(want) > 0 && !slices.EqualFunc(hj, want, func(a, b tuple.Row) bool {
			return slices.EqualFunc(a, b, tuple.Value.Equal)
		})) {
			t.Fatalf("trial %d: hash join order differs from the string-keyed build:\n got %v\nwant %v", trial, hj, want)
		}
		nl, err := Collect(NewNestedLoopJoin(reused(), NewValues(rsch, rrows), And{on}))
		if err != nil {
			t.Fatal(err)
		}
		if !sameMultiset(hj, nl) {
			t.Fatalf("trial %d: joins disagree:\nHJ=%v\nNL=%v", trial, hj, nl)
		}
	}
}
