package exec

import (
	"fmt"

	"tuffy/internal/db/tuple"
)

// HashValue hashes one column value for hash-range partitioning. The
// function is a fixed finalizer (splitmix64 for ints, FNV-1a over the
// elements folded through it for lists), so a (mod, rem) partition of a
// table is stable across processes and runs — which is what lets
// partitioned query results merge deterministically.
func HashValue(v tuple.Value) uint64 {
	if v.Kind == tuple.TInt {
		return mix64(uint64(v.I))
	}
	var h uint64 = 14695981039346656037
	for _, x := range v.List {
		h ^= mix64(uint64(x))
		h *= 1099511628211
	}
	return mix64(h)
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// HashInRange is the predicate form of a hash-range restriction, for the
// restrictions a SeqScan cannot absorb (a second range on the same range
// variable, or a table without a range scan).
type HashInRange struct {
	Idx      int // column position
	Mod, Rem uint32
}

// Eval implements Expr.
func (h HashInRange) Eval(row tuple.Row) (tuple.Value, error) {
	if h.Idx < 0 || h.Idx >= len(row) {
		return tuple.Value{}, fmt.Errorf("exec: hash-range column %d out of row", h.Idx)
	}
	in := h.Mod > 0 && uint32(HashValue(row[h.Idx])%uint64(h.Mod)) == h.Rem
	if in {
		return tuple.I64(1), nil
	}
	return tuple.I64(0), nil
}

// String implements Expr.
func (h HashInRange) String() string {
	return fmt.Sprintf("hash(col%d) %% %d = %d", h.Idx, h.Mod, h.Rem)
}
