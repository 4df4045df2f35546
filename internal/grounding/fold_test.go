package grounding

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"tuffy/internal/mln"
	"tuffy/internal/mrf"
)

// The reference fold: the string-keyed clause accumulator foldRaws replaced,
// kept here as the oracle the merge fold must match bit for bit.

// clauseAccumulator dedups ground clauses by canonical literal set, summing
// weights of duplicates (standard MLN semantics), and assigns dense MRF atom
// ids on first use.
type clauseAccumulator struct {
	ts       *TableSet
	atomID   map[int64]mrf.AtomID
	tableAid []int64
	clauses  map[string]*mrf.Clause
	order    []string
	fixed    float64
	fixedN   int
	raw      int
}

func newClauseAccumulator(ts *TableSet) *clauseAccumulator {
	return &clauseAccumulator{
		ts:       ts,
		atomID:   make(map[int64]mrf.AtomID),
		tableAid: []int64{0},
		clauses:  make(map[string]*mrf.Clause),
	}
}

func (ca *clauseAccumulator) mrfAtom(aid int64) mrf.AtomID {
	if id, ok := ca.atomID[aid]; ok {
		return id
	}
	id := mrf.AtomID(len(ca.tableAid))
	ca.atomID[aid] = id
	ca.tableAid = append(ca.tableAid, aid)
	return id
}

// add registers one raw grounding (literals aid<<1|positive). An empty raw
// is a clause already decided by evidence: a positive weight contributes |w|
// of fixed cost, a negative weight contributes nothing. Duplicate clauses
// have their weights summed.
func (ca *clauseAccumulator) add(weight float64, raw []uint32) {
	ca.raw++
	if len(raw) == 0 {
		if weight > 0 {
			ca.fixed += weight
			ca.fixedN++
		}
		return
	}
	lits := make([]mrf.Lit, len(raw))
	for i, v := range raw {
		l := ca.mrfAtom(int64(v >> 1))
		if v&1 == 0 {
			l = -l
		}
		lits[i] = l
	}
	sort.Slice(lits, func(i, j int) bool { return litLess(lits[i], lits[j]) })
	// Drop duplicate literals; a clause with both l and !l is a tautology.
	lits = dedupLits(lits)
	if lits == nil {
		return // tautology: satisfied in every world
	}
	key := litsKey(lits)
	if c, ok := ca.clauses[key]; ok {
		c.Weight += weight
		return
	}
	ca.clauses[key] = &mrf.Clause{Weight: weight, Lits: lits}
	ca.order = append(ca.order, key)
}

func litLess(a, b mrf.Lit) bool {
	aa, ab := mrf.Atom(a), mrf.Atom(b)
	if aa != ab {
		return aa < ab
	}
	return a < b
}

func litsKey(lits []mrf.Lit) string {
	var b strings.Builder
	b.Grow(len(lits) * 5)
	for _, l := range lits {
		v := uint32(l)
		b.WriteByte(byte(v))
		b.WriteByte(byte(v >> 8))
		b.WriteByte(byte(v >> 16))
		b.WriteByte(byte(v >> 24))
	}
	return b.String()
}

// finish builds the Result in canonical form: atom ids are assigned by
// sorting atoms on their aid-independent descriptors (cmpAtoms) and clauses
// are sorted by their renumbered literal sequences. Clauses whose summed
// weight cancelled to zero are dropped.
func (ca *clauseAccumulator) finish(stats Stats) *Result {
	n := len(ca.tableAid) - 1
	order := make([]mrf.AtomID, n)
	for i := range order {
		order[i] = mrf.AtomID(i + 1)
	}
	slices.SortFunc(order, func(x, y mrf.AtomID) int {
		return cmpAtoms(ca.ts, ca.tableAid[x], ca.tableAid[y])
	})
	remap := make([]mrf.AtomID, n+1)
	tableAid := make([]int64, n+1)
	atomID := make([]mrf.AtomID, slices.Max(ca.tableAid)+1)
	for idx, old := range order {
		id := mrf.AtomID(idx + 1)
		remap[old] = id
		tableAid[id] = ca.tableAid[old]
		atomID[ca.tableAid[old]] = id
	}

	m := mrf.New(n)
	m.FixedCost = ca.fixed
	m.Atoms = make([]mln.GroundAtom, n+1)
	for i := 1; i <= n; i++ {
		m.Atoms[i] = ca.ts.Atom(tableAid[i])
	}
	clauses := make([]mrf.Clause, 0, len(ca.order))
	for _, key := range ca.order {
		c := ca.clauses[key]
		if c.Weight == 0 {
			continue
		}
		lits := make([]mrf.Lit, len(c.Lits))
		for j, l := range c.Lits {
			id := remap[mrf.Atom(l)]
			if !mrf.Pos(l) {
				id = -id
			}
			lits[j] = id
		}
		sort.Slice(lits, func(i, j int) bool { return litLess(lits[i], lits[j]) })
		clauses = append(clauses, mrf.Clause{Weight: c.Weight, Lits: lits})
	}
	sort.Slice(clauses, func(x, y int) bool { return litsLess(clauses[x].Lits, clauses[y].Lits) })
	sorted := mrf.FromClauses(n, clauses)
	m.W, m.Off, m.Lits = sorted.W, sorted.Off, sorted.Lits
	stats.NumAtoms = ca.ts.NumAtoms()
	stats.NumUsedAtoms = n
	stats.NumGroundedRaw = ca.raw
	stats.NumClauses = m.NumClauses()
	stats.FixedCostCount = ca.fixedN
	return &Result{MRF: m, TableAid: tableAid, AtomID: atomID, Stats: stats}
}

// litsLess orders two canonical literal sequences element-wise by
// (atom id, sign), shorter-prefix first.
func litsLess(a, b []mrf.Lit) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return litLess(a[i], b[i])
		}
	}
	return len(a) < len(b)
}

// randomFoldSets draws clause sets over a small registry: raws with
// duplicate and complementary literals and empty raws (randomRaws), each set
// either canonical or left in draw order as the top-down lesion leaves it,
// under weights that include zero, +Inf, both signs, and decimals whose sums
// depend on their order. Some raws are copied into other sets, so one ground
// clause collects several weights and, across a pair of opposite weights,
// cancels to exactly zero.
func randomFoldSets(rng *rand.Rand, ts *TableSet) []RawSet {
	weights := []float64{1.5, -1.5, 0.1, 0.2, 0.3, -0.6, 2, 0, math.Inf(1)}
	sets := make([]RawSet, 1+rng.Intn(6))
	for i := range sets {
		sets[i].weight = weights[rng.Intn(len(weights))]
		for _, raw := range randomRaws(rng, ts, rng.Intn(30)) {
			sets[i].appendRaw(raw)
		}
	}
	if len(sets) > 1 && rng.Intn(2) == 0 && !math.IsInf(sets[0].weight, 0) { // a pair whose weights cancel
		sets[1].weight = -sets[0].weight
	}
	for k := rng.Intn(20); k > 0; k-- { // cross-set duplicates
		from := sets[rng.Intn(len(sets))]
		if from.n() == 0 {
			continue
		}
		raw := slices.Clone(from.raw(rng.Intn(from.n())))
		rng.Shuffle(len(raw), func(a, b int) { raw[a], raw[b] = raw[b], raw[a] })
		sets[rng.Intn(len(sets))].appendRaw(raw)
	}
	for i := range sets {
		if rng.Intn(2) == 0 {
			sets[i] = canonSet(ts, sets[i])
		}
	}
	return sets
}

// TestFoldMatchesReference: foldRaws returns exactly the Result of the
// string-keyed accumulator — atom numbering, clause list, every weight and
// the fixed cost compared by their bits — on random sets, canonical or not.
func TestFoldMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	stats := Stats{JoinRowsVisited: 7, PeakBytes: 99}
	cancelled, unsorted := 0, 0
	for round := 0; round < 400; round++ {
		ts := randomRegistry(rng, 1+rng.Intn(12), registryProg, registryPreds[:len(registryPreds)-1])
		sets := randomFoldSets(rng, ts)
		ca := newClauseAccumulator(ts)
		for _, s := range sets {
			raws := make([][]uint32, s.n())
			for j := range raws {
				raws[j] = s.raw(j)
				ca.add(s.weight, raws[j])
			}
			if !slices.IsSortedFunc(raws, func(a, b []uint32) int { return cmpRaws(ts, a, b) }) {
				unsorted++
			}
		}
		for _, c := range ca.clauses {
			if c.Weight == 0 {
				cancelled++
			}
		}
		want, got := ca.finish(stats), foldRaws(ts, sets, stats)
		requireSameBits(t, "fold", want, got)
		if !reflect.DeepEqual(want.MRF, got.MRF) {
			t.Fatalf("round %d: MRFs differ:\n got %+v\nwant %+v", round, got.MRF, want.MRF)
		}
		if m := got.MRF; cap(m.W) != len(m.W) || cap(m.Off) != len(m.Off) || cap(m.Lits) != len(m.Lits) {
			t.Fatalf("round %d: clause arrays carry slack: W %d/%d, Off %d/%d, Lits %d/%d",
				round, len(m.W), cap(m.W), len(m.Off), cap(m.Off), len(m.Lits), cap(m.Lits))
		}
	}
	if cancelled == 0 || unsorted == 0 {
		t.Fatalf("the generator never produced a cancelled clause (%d) or an unsorted set (%d)", cancelled, unsorted)
	}
}
