package grounding

import (
	"slices"
	"sort"
	"strings"

	"tuffy/internal/mln"
	"tuffy/internal/mrf"
)

// Incremental assembly of the grounded MRF.
//
// assembleResult re-folds every cached raw grounding on each call — O(total
// raws) even when a Reground changed a handful of them. Because finish()
// emits the descriptor-canonical form (atoms sorted by aid-independent
// descriptor, clauses sorted by renumbered literal sequence, duplicate
// clauses weight-summed in first-order-clause order), the assembled Result
// is a pure function of the multiset of raw groundings. incAssembler
// maintains exactly that function under raw-level diffs: per-clause-key
// contribution counts, per-atom occurrence counts, and the two sorted
// orders, so one update costs O(diff) bookkeeping plus an O(output) array
// rebuild that touches no map — while staying bit-identical to a
// fresh finish() over the same raws.
//
// Weight exactness: all raws of one first-order clause carry the same
// weight, and finish() sums duplicate ground clauses in first-order-clause
// order. recalc reproduces that exact floating-point order from the counts,
// so maintained weights equal freshly accumulated ones bit for bit (and
// likewise the evidence-decided fixed cost).

// accEntry is one canonical ground clause with its contribution counts.
type accEntry struct {
	key    string  // concatenated literal descriptors: identity and sort key
	aids   []int64 // canonical literals (descriptor order, deduplicated)
	pos    []bool
	counts []int32 // contributing raws per first-order clause index
	total  int32
	weight float64
}

type incAssembler struct {
	ts   *TableSet
	wPer []float64 // raw weight observed per first-order clause

	fixedCounts []int32 // positive evidence-decided raws per clause
	fixedN      int
	raw         int // total raws (NumGroundedRaw)

	atomCount  map[int64]int32
	descOf     map[int64]string // atom descriptor cache
	atomKeys   []string         // sorted atom descriptors
	atomAids   []int64          // aids aligned with atomKeys
	atomsDirty bool

	entries map[string]*accEntry
	order   []*accEntry // entries sorted by key
	live    bool        // sorted orders maintained eagerly (post-build)

	// canonLits scratch, reused across raws.
	litBuf  []uint32
	descBuf []string
	keyBuf  []byte

	// Epoch-shared caches, replaced (never mutated) when the atom set
	// changes so previously returned Results stay frozen. aidToID is
	// indexed by aid. The Args of atoms are views into the TableSet's
	// argument arena as it was after arenaMoves moves; they are rebuilt
	// when it moves too, so the network stops holding the old arena.
	aidToID    []mrf.AtomID
	tableAid   []int64
	atoms      []mln.GroundAtom
	arenaMoves int
}

func newIncAssembler(ts *TableSet, nClauses int) *incAssembler {
	return &incAssembler{
		ts:          ts,
		wPer:        make([]float64, nClauses),
		fixedCounts: make([]int32, nClauses),
		atomCount:   make(map[int64]int32),
		descOf:      make(map[int64]string),
		entries:     make(map[string]*accEntry),
	}
}

// atomDescKey renders the aid-independent descriptor of one ground atom
// (predicate id then argument constants, big-endian) as a string whose byte
// order is cmpAtoms' order. Only the assembler still keys by it.
func atomDescKey(ts *TableSet, aid int64) string {
	var b strings.Builder
	args := ts.atoms.argsOf(aid)
	b.Grow(4 + 4*len(args))
	v := uint32(ts.atoms.pred[aid])
	b.WriteByte(byte(v >> 24))
	b.WriteByte(byte(v >> 16))
	b.WriteByte(byte(v >> 8))
	b.WriteByte(byte(v))
	for _, c := range args {
		u := uint32(c)
		b.WriteByte(byte(u >> 24))
		b.WriteByte(byte(u >> 16))
		b.WriteByte(byte(u >> 8))
		b.WriteByte(byte(u))
	}
	return b.String()
}

func (a *incAssembler) desc(aid int64) string {
	if d, ok := a.descOf[aid]; ok {
		return d
	}
	d := atomDescKey(a.ts, aid)
	a.descOf[aid] = d
	return d
}

// build ingests every cached raw grounding, then establishes the sorted
// orders. Used once, by ensureAssembler; later diffs go through apply.
func (a *incAssembler) build(perClause []RawSet) {
	for i, s := range perClause {
		for j := 0; j < s.n(); j++ {
			a.addRaw(i, s.weight, s.raw(j), nil)
		}
	}
	a.atomKeys = make([]string, 0, len(a.atomCount))
	for aid := range a.atomCount {
		a.atomKeys = append(a.atomKeys, a.desc(aid))
	}
	sort.Strings(a.atomKeys)
	a.atomAids = make([]int64, len(a.atomKeys))
	byDesc := make(map[string]int64, len(a.atomCount))
	for aid := range a.atomCount {
		byDesc[a.desc(aid)] = aid
	}
	for i, k := range a.atomKeys {
		a.atomAids[i] = byDesc[k]
	}
	a.order = make([]*accEntry, 0, len(a.entries))
	for _, e := range a.entries {
		a.recalc(e)
		a.order = append(a.order, e)
	}
	slices.SortFunc(a.order, func(x, y *accEntry) int { return strings.Compare(x.key, y.key) })
	a.atomsDirty = true
	a.live = true
}

// apply folds one clause's raw-level diff into the maintained state.
func (a *incAssembler) apply(clauseIdx int, added, removed RawSet) {
	dirty := make(map[*accEntry]struct{})
	for j := 0; j < removed.n(); j++ {
		a.removeRaw(clauseIdx, removed.weight, removed.raw(j), dirty)
	}
	for j := 0; j < added.n(); j++ {
		a.addRaw(clauseIdx, added.weight, added.raw(j), dirty)
	}
	for e := range dirty {
		a.recalc(e)
	}
}

// canonLits sorts one raw's literals into descriptor order and
// deduplicates, mirroring sortLits+dedupLits, and renders the clause key
// (each literal's atom descriptor followed by its sign byte). Both results
// alias scratch buffers valid until the next call; ok=false means tautology.
func (a *incAssembler) canonLits(raw []uint32) (lits []uint32, key []byte, ok bool) {
	lits = append(a.litBuf[:0], raw...)
	descs := a.descBuf[:0]
	for _, v := range lits {
		descs = append(descs, a.desc(int64(v>>1)))
	}
	a.litBuf, a.descBuf = lits, descs
	// Descriptors of distinct atoms are never prefixes of one another, so
	// (descriptor, sign) order is the order of the concatenated literal keys.
	less := func(i, j int) bool {
		if descs[i] != descs[j] {
			return descs[i] < descs[j]
		}
		return lits[i]&1 < lits[j]&1
	}
	for i := 1; i < len(lits); i++ {
		for j := i; j > 0 && less(j, j-1); j-- {
			descs[j], descs[j-1] = descs[j-1], descs[j]
			lits[j], lits[j-1] = lits[j-1], lits[j]
		}
	}
	key = a.keyBuf[:0]
	w := 0
	for i, v := range lits {
		if w > 0 && v>>1 == lits[w-1]>>1 {
			if v == lits[w-1] {
				continue // duplicate literal
			}
			return nil, nil, false // x v !x: tautology
		}
		lits[w] = v
		w++
		key = append(append(key, descs[i]...), byte(v&1))
	}
	a.keyBuf = key
	return lits[:w], key, true
}

func (a *incAssembler) addRaw(clauseIdx int, weight float64, raw []uint32, dirty map[*accEntry]struct{}) {
	a.raw++
	a.wPer[clauseIdx] = weight
	if len(raw) == 0 {
		if weight > 0 {
			a.fixedCounts[clauseIdx]++
			a.fixedN++
		}
		return
	}
	for _, v := range raw {
		aid := int64(v >> 1)
		a.atomCount[aid]++
		if a.atomCount[aid] == 1 && a.live {
			a.insertAtom(aid)
		}
	}
	lits, key, ok := a.canonLits(raw)
	if !ok {
		return
	}
	e := a.entries[string(key)]
	if e == nil {
		e = &accEntry{key: string(key), aids: make([]int64, len(lits)), pos: make([]bool, len(lits)), counts: make([]int32, len(a.wPer))}
		for i, v := range lits {
			e.aids[i], e.pos[i] = int64(v>>1), v&1 == 1
		}
		a.entries[e.key] = e
		if a.live {
			i := a.search(e.key)
			a.order = append(a.order, nil)
			copy(a.order[i+1:], a.order[i:])
			a.order[i] = e
		}
	}
	e.counts[clauseIdx]++
	e.total++
	if dirty != nil {
		dirty[e] = struct{}{}
	}
}

func (a *incAssembler) removeRaw(clauseIdx int, weight float64, raw []uint32, dirty map[*accEntry]struct{}) {
	a.raw--
	if len(raw) == 0 {
		if weight > 0 {
			a.fixedCounts[clauseIdx]--
			a.fixedN--
		}
		return
	}
	for _, v := range raw {
		aid := int64(v >> 1)
		a.atomCount[aid]--
		if a.atomCount[aid] == 0 {
			delete(a.atomCount, aid)
			a.removeAtom(aid)
		}
	}
	_, key, ok := a.canonLits(raw)
	if !ok {
		return
	}
	e := a.entries[string(key)]
	e.counts[clauseIdx]--
	e.total--
	if e.total == 0 {
		delete(a.entries, e.key)
		delete(dirty, e)
		i := a.search(e.key)
		a.order = append(a.order[:i], a.order[i+1:]...)
		return
	}
	dirty[e] = struct{}{}
}

// search returns the position of key in the sorted entry order.
func (a *incAssembler) search(key string) int {
	return sort.Search(len(a.order), func(i int) bool { return a.order[i].key >= key })
}

func (a *incAssembler) insertAtom(aid int64) {
	k := a.desc(aid)
	i := sort.SearchStrings(a.atomKeys, k)
	a.atomKeys = append(a.atomKeys, "")
	copy(a.atomKeys[i+1:], a.atomKeys[i:])
	a.atomKeys[i] = k
	a.atomAids = append(a.atomAids, 0)
	copy(a.atomAids[i+1:], a.atomAids[i:])
	a.atomAids[i] = aid
	a.atomsDirty = true
}

func (a *incAssembler) removeAtom(aid int64) {
	k := a.desc(aid)
	i := sort.SearchStrings(a.atomKeys, k)
	a.atomKeys = append(a.atomKeys[:i], a.atomKeys[i+1:]...)
	a.atomAids = append(a.atomAids[:i], a.atomAids[i+1:]...)
	a.atomsDirty = true
}

// recalc recomputes the entry's weight in the exact floating-point order a
// fresh accumulation would use: contributions grouped by ascending
// first-order clause index, one add per raw.
func (a *incAssembler) recalc(e *accEntry) {
	w := 0.0
	for i, c := range e.counts {
		for k := int32(0); k < c; k++ {
			w += a.wPer[i]
		}
	}
	e.weight = w
}

// result materializes the canonical Result, translating every clause under
// the current atom numbering into a fresh arena. Atom-numbering caches are
// rebuilt (replaced, not mutated) only when the atom set or the argument
// arena changed.
func (a *incAssembler) result(perStats []Stats) *Result {
	if a.atomsDirty || a.arenaMoves != a.ts.atoms.moves {
		n := len(a.atomAids)
		maxAid := int64(0)
		for _, aid := range a.atomAids {
			maxAid = max(maxAid, aid)
		}
		aidToID := make([]mrf.AtomID, maxAid+1)
		tableAid := make([]int64, n+1)
		atoms := make([]mln.GroundAtom, n+1)
		for i, aid := range a.atomAids {
			id := mrf.AtomID(i + 1)
			aidToID[aid] = id
			tableAid[id] = aid
			atoms[id] = a.ts.Atom(aid)
		}
		a.aidToID, a.tableAid, a.atoms = aidToID, tableAid, atoms
		a.atomsDirty, a.arenaMoves = false, a.ts.atoms.moves
	}
	m := mrf.New(len(a.atomAids))
	m.Atoms = a.atoms
	fixed := 0.0
	for i, c := range a.fixedCounts {
		for k := int32(0); k < c; k++ {
			fixed += a.wPer[i]
		}
	}
	m.FixedCost = fixed
	n, nlits := 0, 0
	for _, e := range a.order {
		if e.weight != 0 {
			n++
			nlits += len(e.aids)
		}
	}
	m.Reserve(n, nlits)
	// Descriptor order equals id order, so no re-sort is needed.
	var lits []mrf.Lit
	for _, e := range a.order {
		if e.weight == 0 {
			continue
		}
		lits = lits[:0]
		for i, aid := range e.aids {
			id := a.aidToID[aid]
			if !e.pos[i] {
				id = -id
			}
			lits = append(lits, id)
		}
		m.Append(e.weight, lits)
	}
	stats := Stats{
		NumAtoms:       a.ts.NumAtoms(),
		NumUsedAtoms:   len(a.atomAids),
		NumGroundedRaw: a.raw,
		NumClauses:     n,
		FixedCostCount: a.fixedN,
	}
	for _, st := range perStats {
		stats.absorb(st)
	}
	return &Result{MRF: m, TableAid: a.tableAid, AtomID: a.aidToID, Stats: stats}
}
