// Package mrf holds the grounded Markov Random Field produced by the
// grounding phase: ground atoms (Boolean variables), weighted ground clauses
// over them, the world-cost function (Eq. 1 of the Tuffy paper), and
// connected-component detection (Section 3.3).
package mrf

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"tuffy/internal/mln"
)

// AtomID numbers ground atoms 1..N. Literals are signed atom ids: +a for a
// positive occurrence, -a for a negated one (the lits array layout Tuffy
// stores in its RDBMS clause table).
type AtomID = int32

// Lit is a signed atom id.
type Lit = int32

// Atom converts a literal to its atom id.
func Atom(l Lit) AtomID {
	if l < 0 {
		return -l
	}
	return l
}

// Pos reports whether the literal is positive.
func Pos(l Lit) bool { return l > 0 }

// Clause is one weighted ground clause. A clause with positive weight is
// violated when false; one with negative weight is violated when true
// (Section 2.2). Hard clauses carry +Inf weight.
type Clause struct {
	Weight float64
	Lits   []Lit
}

// IsHard reports whether the clause is a hard constraint.
func (c Clause) IsHard() bool { return math.IsInf(c.Weight, 0) }

// SatisfiedBy evaluates the clause under a truth assignment (1-based; state
// index 0 is unused).
func (c Clause) SatisfiedBy(state []bool) bool {
	for _, l := range c.Lits {
		if state[Atom(l)] == Pos(l) {
			return true
		}
	}
	return false
}

// ViolatedBy reports whether the clause is violated in the state per the
// signed-weight semantics.
func (c Clause) ViolatedBy(state []bool) bool {
	sat := c.SatisfiedBy(state)
	if c.Weight >= 0 {
		return !sat
	}
	return sat
}

// MRF is a grounded network: atoms 1..NumAtoms and weighted clauses.
type MRF struct {
	NumAtoms int
	Clauses  []Clause
	// FixedCost accumulates |w| of ground clauses that evidence already
	// decided to be violated (no search can fix them). It is added to every
	// world's cost.
	FixedCost float64
	// Atoms maps atom id -> ground atom descriptor (index 0 unused). May be
	// nil for synthetic MRFs.
	Atoms []mln.GroundAtom

	// search is the lazily built search index (index.go); it makes an MRF
	// non-copyable after first use.
	search searchIndex
}

// New returns an empty MRF over n atoms.
func New(n int) *MRF {
	return &MRF{NumAtoms: n}
}

// AddClause appends a ground clause; it validates atom ids.
func (m *MRF) AddClause(w float64, lits ...Lit) error {
	if len(lits) == 0 {
		return fmt.Errorf("mrf: empty clause")
	}
	for _, l := range lits {
		a := Atom(l)
		if a < 1 || int(a) > m.NumAtoms {
			return fmt.Errorf("mrf: literal %d out of range (atoms 1..%d)", l, m.NumAtoms)
		}
	}
	m.Clauses = append(m.Clauses, Clause{Weight: w, Lits: lits})
	return nil
}

// NewState returns an all-false truth assignment (1-based).
func (m *MRF) NewState() []bool { return make([]bool, m.NumAtoms+1) }

// Cost computes the total cost of a state: FixedCost plus the sum of |w|
// over violated soft clauses; +Inf if any hard clause is violated.
func (m *MRF) Cost(state []bool) float64 {
	cost := m.FixedCost
	for _, c := range m.Clauses {
		if c.ViolatedBy(state) {
			if c.IsHard() {
				return math.Inf(1)
			}
			cost += math.Abs(c.Weight)
		}
	}
	return cost
}

// NumViolated counts violated clauses in the state.
func (m *MRF) NumViolated(state []bool) int {
	n := 0
	for _, c := range m.Clauses {
		if c.ViolatedBy(state) {
			n++
		}
	}
	return n
}

// Stats summarizes the memory the MRF's search representation needs — the
// byte accounting used for the paper's Table 4/5 RAM comparisons.
type Stats struct {
	NumAtoms     int
	NumClauses   int
	NumLiterals  int
	ClauseBytes  int64 // clause table representation
	SearchBytes  int64 // in-memory search structures (adjacency + state)
	NumHard      int
	NumNegWeight int
}

// ComputeStats sizes the MRF.
func (m *MRF) ComputeStats() Stats {
	s := Stats{NumAtoms: m.NumAtoms, NumClauses: len(m.Clauses)}
	for _, c := range m.Clauses {
		s.NumLiterals += len(c.Lits)
		if c.IsHard() {
			s.NumHard++
		}
		if c.Weight < 0 {
			s.NumNegWeight++
		}
	}
	// Clause table: per clause 8 (weight) + 8 (cid) + 4 bytes/lit.
	s.ClauseBytes = int64(len(m.Clauses))*16 + int64(s.NumLiterals)*4
	// Search structures: per clause header + lits, per atom state +
	// adjacency postings (one per literal) + best-state copy.
	s.SearchBytes = int64(len(m.Clauses))*24 + int64(s.NumLiterals)*8 + int64(m.NumAtoms)*10
	return s
}

// UnionFind is a standard disjoint-set structure over atom ids; exported
// because the partitioning layer reuses it.
type UnionFind struct {
	parent []int32
	rank   []int8
	count  int // number of disjoint sets
}

// NewUnionFind creates n+1 singleton sets (index 0 unused).
func NewUnionFind(n int) *UnionFind {
	uf := &UnionFind{parent: make([]int32, n+1), rank: make([]int8, n+1), count: n}
	for i := range uf.parent {
		uf.parent[i] = int32(i)
	}
	return uf
}

// Find returns the set representative with path compression.
func (u *UnionFind) Find(x int32) int32 {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

// Union merges the sets of a and b; it reports whether a merge happened.
func (u *UnionFind) Union(a, b int32) bool {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return false
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
	u.count--
	return true
}

// Count returns the number of disjoint sets.
func (u *UnionFind) Count() int { return u.count }

// Component is one connected component of an MRF, with the atom-id mapping
// back to the parent network.
type Component struct {
	MRF *MRF
	// GlobalAtom maps local atom id (1-based) to the parent MRF's atom id.
	GlobalAtom []AtomID
}

// Size returns the number of atoms in the component.
func (c *Component) Size() int { return c.MRF.NumAtoms }

// Components splits the MRF into its connected components using a union-find
// pass over the clause table, exactly as Section 3.3 describes. Isolated
// atoms (no clauses) become singleton components only if includeIsolated.
func (m *MRF) Components(includeIsolated bool) []*Component {
	uf := NewUnionFind(m.NumAtoms)
	touched := make([]bool, m.NumAtoms+1)
	for _, c := range m.Clauses {
		first := Atom(c.Lits[0])
		touched[first] = true
		for _, l := range c.Lits[1:] {
			uf.Union(first, Atom(l))
			touched[Atom(l)] = true
		}
	}
	// Group atoms by root.
	groups := make(map[int32][]AtomID)
	for a := int32(1); a <= int32(m.NumAtoms); a++ {
		if !touched[a] && !includeIsolated {
			continue
		}
		root := uf.Find(a)
		groups[root] = append(groups[root], a)
	}
	// Build components with local atom numbering.
	compOf := make(map[int32]*Component, len(groups))
	localID := make([]AtomID, m.NumAtoms+1)
	var comps []*Component
	for root, atoms := range groups {
		comp := &Component{MRF: New(len(atoms)), GlobalAtom: make([]AtomID, len(atoms)+1)}
		for i, a := range atoms {
			localID[a] = AtomID(i + 1)
			comp.GlobalAtom[i+1] = a
			if m.Atoms != nil {
				if comp.MRF.Atoms == nil {
					comp.MRF.Atoms = make([]mln.GroundAtom, len(atoms)+1)
				}
				comp.MRF.Atoms[i+1] = m.Atoms[a]
			}
		}
		compOf[root] = comp
		comps = append(comps, comp)
	}
	for _, c := range m.Clauses {
		root := uf.Find(Atom(c.Lits[0]))
		comp := compOf[root]
		lits := make([]Lit, len(c.Lits))
		for i, l := range c.Lits {
			ll := localID[Atom(l)]
			if !Pos(l) {
				ll = -ll
			}
			lits[i] = ll
		}
		comp.MRF.Clauses = append(comp.MRF.Clauses, Clause{Weight: c.Weight, Lits: lits})
	}
	// Deterministic order: by smallest global atom id.
	sortComponents(comps)
	return comps
}

// sortComponents orders components by their smallest global atom id (local
// atom 1), a key no two components share. IE-shaped networks have thousands
// of components and RepairComponents re-sorts on every evidence update.
func sortComponents(comps []*Component) {
	slices.SortFunc(comps, func(a, b *Component) int {
		return cmp.Compare(a.GlobalAtom[1], b.GlobalAtom[1])
	})
}

// ProjectState copies the component's local state into the global state.
func (c *Component) ProjectState(local, global []bool) {
	for i := 1; i <= c.MRF.NumAtoms; i++ {
		global[c.GlobalAtom[i]] = local[i]
	}
}

// ExtractState copies the global state into a local component state.
func (c *Component) ExtractState(global []bool) []bool {
	local := c.MRF.NewState()
	for i := 1; i <= c.MRF.NumAtoms; i++ {
		local[i] = global[c.GlobalAtom[i]]
	}
	return local
}
