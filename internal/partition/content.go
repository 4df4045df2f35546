package partition

import (
	"math"

	"tuffy/internal/mrf"
)

// contents reads each part's internal clauses out of the parent network:
// clause j of part pi is the parent's clause at(pi, j), with its literals
// renumbered to local ids through localID.
type contents struct {
	m       *mrf.MRF
	parts   []*Part
	partOf  []int32
	localID []mrf.AtomID
	n       []int // internal clauses per part
	// first and last are the parent's first and last clause of each part.
	// With windows, part pi's clauses are the parent's first[pi]..last[pi];
	// otherwise they are order[start[pi]:], as groupClauses lists them.
	windows     bool
	first, last []int
	order       []int32
	start       []int
}

// groupClauses lists every part's internal clauses, in parent order, for a
// partitioning whose parts' clauses are not contiguous in the parent.
func (c *contents) groupClauses() {
	c.start = make([]int, len(c.n))
	next := make([]int, len(c.n))
	total := 0
	for pi, k := range c.n {
		c.start[pi], next[pi] = total, total
		total += k
	}
	c.order = make([]int32, total)
	for ci := range c.m.W {
		if pi := partOfClause(c.partOf, c.m.ClauseLits(ci)); pi >= 0 {
			c.order[next[pi]] = int32(ci)
			next[pi]++
		}
	}
}

func (c *contents) at(pi, j int) int {
	if c.windows {
		return c.first[pi] + j
	}
	return int(c.order[c.start[pi]+j])
}

func (c *contents) atoms(pi int) int { return len(c.parts[pi].GlobalAtom) - 1 }

// hash is a content hash of part pi: its atom count and, clause by clause,
// the weight's bits and the local literals in order — what same compares.
func (c *contents) hash(pi int) uint64 {
	h := mix(0xcbf29ce484222325, uint64(c.atoms(pi)))
	for j := range c.n[pi] {
		ci := c.at(pi, j)
		lits := c.m.ClauseLits(ci)
		h = mix(mix(h, math.Float64bits(c.m.W[ci])), uint64(len(lits)))
		for _, l := range lits {
			h = mix(h, uint64(uint32(localLit(c.localID, l))))
		}
	}
	return h
}

// mix folds v into the running hash h, FNV-1a a word at a time: each step
// is a bijection of h, so contents that differ in one word never collide.
func mix(h, v uint64) uint64 { return (h ^ v) * 0x100000001b3 }

// same reports whether parts a and b have equal content: as many atoms and,
// clause for clause, bit-equal weights and equal local literals in the same
// order. Parts carry no fixed cost, so equal content is an equal network:
// every search over one is a search over the other.
func (c *contents) same(a, b int) bool {
	if c.atoms(a) != c.atoms(b) || c.n[a] != c.n[b] {
		return false
	}
	for j := range c.n[a] {
		ca, cb := c.at(a, j), c.at(b, j)
		la, lb := c.m.ClauseLits(ca), c.m.ClauseLits(cb)
		if math.Float64bits(c.m.W[ca]) != math.Float64bits(c.m.W[cb]) || len(la) != len(lb) {
			return false
		}
		for i, l := range la {
			if localLit(c.localID, l) != localLit(c.localID, lb[i]) {
				return false
			}
		}
	}
	return true
}

// network returns part pi's clauses in a network of exact size.
func (c *contents) network(pi int) *mrf.MRF {
	local := mrf.New(c.atoms(pi))
	local.Reserve(c.n[pi], c.parts[pi].SizeUnits-local.NumAtoms)
	c.appendTo(local, pi, nil)
	return local
}

// appendTo appends part pi's clauses, in local ids, to local; buf is
// scratch for the renumbered literals, returned for reuse.
func (c *contents) appendTo(local *mrf.MRF, pi int, buf []mrf.Lit) []mrf.Lit {
	for j := range c.n[pi] {
		ci := c.at(pi, j)
		buf = buf[:0]
		for _, l := range c.m.ClauseLits(ci) {
			buf = append(buf, localLit(c.localID, l))
		}
		local.Append(c.m.W[ci], buf)
	}
	return buf
}

// classes groups items 0..len(hash)-1 by content, given each one's content
// hash and the full compare that settles a collision: rep[i] is the first
// item whose content equals i's.
func classes(hash []uint64, same func(a, b int) bool) []int32 {
	rep := make([]int32, len(hash))
	next := make([]int32, len(hash)) // the previous class with the same hash, or -1
	heads := make(map[uint64]int32)
	for i, h := range hash {
		r, ok := heads[h]
		for ok && !same(int(r), i) {
			r = next[r]
			ok = r >= 0
		}
		if ok {
			rep[i] = r
			continue
		}
		rep[i], next[i] = int32(i), -1
		if head, ok := heads[h]; ok {
			next[i] = head
		}
		heads[h] = int32(i)
	}
	return rep
}
