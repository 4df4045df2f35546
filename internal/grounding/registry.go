package grounding

import (
	"slices"

	"tuffy/internal/mln"
)

// atomList is the aid -> atom map as three flat arrays indexed by aid (index
// 0 unused): the predicate's ID, which is its index in Program.Preds, and the
// end of the atom's arguments in one shared argument arena. An atom of arity
// k costs 8 + 4k bytes and no allocation of its own. The arena is only ever
// appended to, so a view handed out by argsOf stays valid.
type atomList struct {
	pred []int32  // pred[aid] is the predicate ID
	end  []uint32 // the args of aid are args[end[aid-1]:end[aid]]
	args []int32
}

// newAtomList returns a list holding only the unused aid 0.
func newAtomList() atomList {
	return atomList{pred: make([]int32, 1), end: make([]uint32, 1)}
}

// n returns the number of aids including the unused 0: the next aid.
func (l *atomList) n() int { return len(l.pred) }

// add appends the next aid's atom, copying args into the arena.
func (l *atomList) add(pred *mln.Predicate, args []int32) {
	l.args = append(l.args, args...)
	l.pred = append(l.pred, int32(pred.ID))
	l.end = append(l.end, uint32(len(l.args)))
}

// argsOf returns aid's arguments as a view into the arena, clipped to its
// length so that appending to it copies instead of overwriting a neighbour.
func (l *atomList) argsOf(aid int64) []int32 {
	lo, hi := l.end[aid-1], l.end[aid]
	return l.args[lo:hi:hi]
}

// clip reallocates each array at exactly its length, dropping the growth
// slack appending left, once a load is done.
func (l *atomList) clip() {
	l.pred, l.end, l.args = exact(l.pred), exact(l.end), exact(l.args)
}

// exact returns s in an allocation of exactly its length.
func exact[S ~[]E, E any](s S) S {
	if cap(s) == len(s) {
		return s
	}
	return append(make(S, 0, len(s)), s...)
}

// registry finds an atom's aid from its (predicate, args): one open-addressed
// table of aids, hashed on the pair and compared through the TableSet's atom
// list, so a registered atom costs one 4-byte slot (the table is at most
// three quarters full) beside the list entry the TableSet keeps anyway. The
// zero value is an empty registry. Lookups may run concurrently with each
// other, not with an insert.
type registry struct {
	slots []uint32 // aids; 0 marks an empty slot; len is a power of two
	n     int      // registered aids
}

// atomHash mixes a predicate id and its arguments into 64 bits.
func atomHash(pred int32, args []int32) uint64 {
	h := uint64(pred)*0x9e3779b97f4a7c15 ^ uint64(len(args))
	for _, a := range args {
		h = (h ^ uint64(uint32(a))) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	return h ^ h>>32
}

// find returns the aid registered for (pred, args), or 0.
func (r *registry) find(atoms *atomList, pred *mln.Predicate, args []int32) int64 {
	if len(r.slots) == 0 {
		return 0
	}
	id := int32(pred.ID)
	mask := uint64(len(r.slots) - 1)
	for i := atomHash(id, args) & mask; ; i = (i + 1) & mask {
		aid := r.slots[i]
		if aid == 0 {
			return 0
		}
		if atoms.pred[aid] == id && slices.Equal(atoms.argsOf(int64(aid)), args) {
			return int64(aid)
		}
	}
}

// insert registers the atom list's aid, which must not be registered yet.
func (r *registry) insert(atoms *atomList, aid int64) {
	if 4*(r.n+1) > 3*len(r.slots) {
		old := r.slots
		r.slots = make([]uint32, max(16, 2*len(old)))
		for _, a := range old {
			if a != 0 {
				r.place(atoms, a)
			}
		}
	}
	r.place(atoms, uint32(aid))
	r.n++
}

// place puts aid into the first free slot of its probe sequence.
func (r *registry) place(atoms *atomList, aid uint32) {
	mask := uint64(len(r.slots) - 1)
	i := atomHash(atoms.pred[aid], atoms.argsOf(int64(aid))) & mask
	for r.slots[i] != 0 {
		i = (i + 1) & mask
	}
	r.slots[i] = aid
}
