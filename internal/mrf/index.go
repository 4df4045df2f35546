package mrf

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
)

// Postings is the atom→clause occurrence index WalkSAT flips against, in
// CSR form: one array of clause ids grouped per atom (positive occurrences,
// then negative ones, each in ascending clause order) and one array of
// offsets into it. Build reuses both arrays, so a search chain whose clause
// set changes per call (Gauss-Seidel's conditioned partitions, MC-SAT's
// per-sample selection) re-indexes into one pair of buffers; the zero value
// is ready to Build.
type Postings struct {
	ids []int32
	// off[2a]..off[2a+1] bounds atom a's positive postings in ids,
	// off[2a+1]..off[2a+2] its negative ones (atom 0 is unused and empty).
	off []int32
}

// Build indexes m's clauses over its atoms with one counting sort: a pass
// to size every posting list, a prefix sum, and a pass to fill them.
func (p *Postings) Build(m *MRF) {
	n := 2*(m.NumAtoms+1) + 1
	if cap(p.off) < n {
		p.off = make([]int32, n)
	} else {
		p.off = p.off[:n]
		clear(p.off)
	}
	// Count each list into the slot after its own, so the prefix sum leaves
	// off[s] at the start of list s.
	for _, l := range m.Lits[m.litsLo():] {
		p.off[postingSlot(l)+1]++
	}
	for i := 1; i < n; i++ {
		p.off[i] += p.off[i-1]
	}
	total := int(p.off[n-1])
	if cap(p.ids) < total {
		p.ids = make([]int32, total)
	} else {
		p.ids = p.ids[:total]
	}
	// Fill with off[s] as list s's write cursor; afterwards off[s] holds the
	// END of list s, i.e. the start of list s+1, so shifting right by one
	// slot restores the starts.
	lo := m.litsLo()
	for ci := range m.W {
		hi := m.Off[ci+1]
		for _, l := range m.Lits[lo:hi] {
			s := postingSlot(l)
			p.ids[p.off[s]] = int32(ci)
			p.off[s]++
		}
		lo = hi
	}
	copy(p.off[1:], p.off[:n-1])
	p.off[0] = 0
}

func postingSlot(l Lit) int32 {
	if l > 0 {
		return 2 * l
	}
	return -2*l + 1
}

// Pos returns the clauses atom a occurs in positively. The slice aliases the
// index and must not be modified.
func (p *Postings) Pos(a AtomID) []int32 { return p.ids[p.off[2*a]:p.off[2*a+1]] }

// Neg returns the clauses atom a occurs in negated.
func (p *Postings) Neg(a AtomID) []int32 { return p.ids[p.off[2*a+1]:p.off[2*a+2]] }

// searchIndex is the read-only search-side view of an IMMUTABLE MRF, owned
// by the MRF itself so it is shared by every query that searches the
// network and collected with it. Each part is built on first use and never
// rebuilt: the three accessors below may only be called on an MRF whose
// NumAtoms, clauses and FixedCost no longer change — the local networks of
// an engine epoch (partition.Part.Local, Component.MRF), which repairs
// carry by pointer into later epochs for everything an evidence update did
// not touch. Code handed an MRF it does not own builds its own Postings.
type searchIndex struct {
	postOnce sync.Once
	post     Postings

	baseOnce sync.Once
	baseline float64

	fpOnce     sync.Once
	fp         uint64
	seedOffset int64
}

// SharedPostings returns the MRF's occurrence index, building it on first
// use. Immutable MRFs only (see searchIndex).
func (m *MRF) SharedPostings() *Postings {
	m.search.postOnce.Do(func() { m.search.post.Build(m) })
	return &m.search.post
}

// AllFalseCost returns the cost of the all-false assignment — what a
// component contributes to a component-aware answer before (or without) its
// search. Immutable MRFs only (see searchIndex).
func (m *MRF) AllFalseCost() float64 {
	m.search.baseOnce.Do(func() { m.search.baseline = m.Cost(m.NewState()) })
	return m.search.baseline
}

// Fingerprint returns a content hash of the MRF — atom count, fixed cost,
// and every clause's weight and literals; atom descriptors are excluded on
// purpose, search outcomes depend only on the clause structure — and the
// per-component seed offset derived from it. Immutable MRFs only (see
// searchIndex).
func (m *MRF) Fingerprint() (fp uint64, seedOffset int64) {
	m.search.fpOnce.Do(func() {
		h := fnv.New64a()
		var buf [8]byte
		w := func(v uint64) {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
		w(uint64(m.NumAtoms))
		w(math.Float64bits(m.FixedCost))
		for ci, wt := range m.W {
			lits := m.ClauseLits(ci)
			w(math.Float64bits(wt))
			w(uint64(len(lits)))
			for _, l := range lits {
				w(uint64(uint32(l)))
			}
		}
		m.search.fp = h.Sum64()
		// The offset hashes the fingerprint's 16-digit hex form: that is
		// what seeded every memoized component before the fingerprint was a
		// number, and seeds must not change.
		h32 := fnv.New32a()
		fmt.Fprintf(h32, "%016x", m.search.fp)
		m.search.seedOffset = int64(h32.Sum32())
	})
	return m.search.fp, m.search.seedOffset
}
