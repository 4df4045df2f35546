package grounding

import (
	"slices"

	"tuffy/internal/mln"
)

// registry finds an atom's aid from its (predicate, args): one open-addressed
// table of aids, hashed on the pair and compared through the TableSet's atom
// list, so a registered atom costs one 4-byte slot (the table is at most
// three quarters full) beside the descriptor the TableSet keeps anyway. The
// zero value is an empty registry. Lookups may run concurrently with each
// other, not with an insert.
type registry struct {
	slots []uint32 // aids; 0 marks an empty slot; len is a power of two
	n     int      // registered aids
}

// atomHash mixes a predicate id and its arguments into 64 bits.
func atomHash(pred *mln.Predicate, args []int32) uint64 {
	h := uint64(pred.ID)*0x9e3779b97f4a7c15 ^ uint64(len(args))
	for _, a := range args {
		h = (h ^ uint64(uint32(a))) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	return h ^ h>>32
}

// find returns the aid registered for (pred, args), or 0.
func (r *registry) find(atoms []mln.GroundAtom, pred *mln.Predicate, args []int32) int64 {
	if len(r.slots) == 0 {
		return 0
	}
	mask := uint64(len(r.slots) - 1)
	for i := atomHash(pred, args) & mask; ; i = (i + 1) & mask {
		aid := r.slots[i]
		if aid == 0 {
			return 0
		}
		if a := atoms[aid]; a.Pred == pred && slices.Equal(a.Args, args) {
			return int64(aid)
		}
	}
}

// insert registers atoms[aid], which must not be registered yet.
func (r *registry) insert(atoms []mln.GroundAtom, aid int64) {
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
func (r *registry) place(atoms []mln.GroundAtom, aid uint32) {
	mask := uint64(len(r.slots) - 1)
	i := atomHash(atoms[aid].Pred, atoms[aid].Args) & mask
	for r.slots[i] != 0 {
		i = (i + 1) & mask
	}
	r.slots[i] = aid
}
