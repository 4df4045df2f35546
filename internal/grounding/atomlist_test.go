package grounding

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"tuffy/internal/db"
	"tuffy/internal/mln"
)

// randomAtomProgram declares 3 to 6 predicates of arity 0 to 3 over three
// types, about half of them closed, with domains that include constants
// whose int32 and uint32 orders differ, and random evidence.
func randomAtomProgram(t *testing.T, rng *rand.Rand) (*mln.Program, *mln.Evidence) {
	t.Helper()
	prog := mln.NewProgram()
	types := []string{"ta", "tb", "tc"}
	consts := []int32{0, 1, 2, 7, 255, 256, 65536, 1<<31 - 1, -1, -300}
	for _, typ := range types {
		for _, c := range consts[:2+rng.Intn(len(consts)-1)] {
			prog.Domain(typ).Add(c)
		}
	}
	for i, n := 0, 3+rng.Intn(4); i < n; i++ {
		args := make([]string, rng.Intn(4))
		for k := range args {
			args[k] = types[rng.Intn(len(types))]
		}
		if _, err := prog.DeclarePredicate(fmt.Sprintf("p%d", i), args, rng.Intn(2) == 0); err != nil {
			t.Fatal(err)
		}
	}
	ev := mln.NewEvidence(prog)
	for _, p := range prog.Preds {
		for i := rng.Intn(12); i > 0; i-- {
			if err := ev.Assert(p, randomArgs(rng, prog, p), rng.Intn(4) == 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	return prog, ev
}

// randomArgs draws an argument tuple for p from its type domains.
func randomArgs(rng *rand.Rand, prog *mln.Program, p *mln.Predicate) []int32 {
	args := make([]int32, p.Arity())
	for k, typ := range p.Args {
		dom := prog.Domain(typ).Sorted()
		args[k] = dom[rng.Intn(len(dom))]
	}
	return args
}

// refAtoms is the registry BuildTables must build, as a plain atom slice
// (index 0 unused): predicates in declaration order, a closed one's true
// evidence in ForEach order, an open one's whole cross product of sorted
// domains.
func refAtoms(prog *mln.Program, ev *mln.Evidence) []mln.GroundAtom {
	ref := []mln.GroundAtom{{}}
	for _, p := range prog.Preds {
		if p.Closed {
			ev.ForEach(p, func(args []int32, truth mln.Truth) {
				if truth == mln.True {
					ref = append(ref, mln.GroundAtom{Pred: p, Args: slices.Clone(args)})
				}
			})
			continue
		}
		tuples := [][]int32{{}}
		for _, typ := range p.Args {
			var next [][]int32
			for _, prefix := range tuples {
				for _, c := range prog.Domain(typ).Sorted() {
					next = append(next, append(slices.Clone(prefix), c))
				}
			}
			tuples = next
		}
		for _, args := range tuples {
			ref = append(ref, mln.GroundAtom{Pred: p, Args: args})
		}
	}
	return ref
}

// cmpRefAtoms is the canonical atom order on plain atoms: predicate id, then
// the arguments, each compared as uint32.
func cmpRefAtoms(a, b mln.GroundAtom) int {
	if c := cmp.Compare(uint32(a.Pred.ID), uint32(b.Pred.ID)); c != 0 {
		return c
	}
	return slices.CompareFunc(a.Args, b.Args, func(x, y int32) int { return cmp.Compare(uint32(x), uint32(y)) })
}

// checkRegistry compares everything the TableSet answers about its atoms
// with the reference slice.
func checkRegistry(t *testing.T, name string, rng *rand.Rand, ts *TableSet, ref []mln.GroundAtom) {
	t.Helper()
	if ts.NumAtoms() != len(ref)-1 {
		t.Fatalf("%s: %d atoms, reference %d", name, ts.NumAtoms(), len(ref)-1)
	}
	byKey := make(map[string]int64, len(ref))
	for aid := int64(1); aid < int64(len(ref)); aid++ {
		want := ref[aid]
		byKey[registryKey(want.Pred, want.Args)] = aid
		if got := ts.Atom(aid); got.Pred != want.Pred || !slices.Equal(got.Args, want.Args) {
			t.Fatalf("%s: aid %d is %v, reference %v", name, aid, got, want)
		}
		if got, ok := ts.AidOf(want.Pred, want.Args); !ok || got != aid {
			t.Fatalf("%s: %v found as aid %d (%v), reference %d", name, want, got, ok, aid)
		}
	}
	for _, p := range ts.Prog.Preds {
		for i := 0; i < 20; i++ {
			args := randomArgs(rng, ts.Prog, p)
			if len(args) > 0 && rng.Intn(3) == 0 {
				args[rng.Intn(len(args))] += 3 // maybe outside the domain
			}
			want := byKey[registryKey(p, args)]
			if got, ok := ts.AidOf(p, args); got != want || ok != (want != 0) {
				t.Fatalf("%s: %s%v found as aid %d (%v), reference %d", name, p.Name, args, got, ok, want)
			}
		}
	}

	exported := ts.ExportAtoms()
	if len(exported) != len(ref)-1 {
		t.Fatalf("%s: exported %d atoms of %d", name, len(exported), len(ref)-1)
	}
	for i, sa := range exported {
		want := ref[i+1]
		if ts.Prog.Preds[sa.Pred] != want.Pred || !slices.Equal(sa.Args, want.Args) || sa.Truth != ts.TruthOf(int64(i+1)) {
			t.Fatalf("%s: exported aid %d as %+v, reference %v truth %d", name, i+1, sa, want, ts.TruthOf(int64(i+1)))
		}
	}

	// One unit raw per atom: the fold numbers every atom, in canonical order.
	set := RawSet{weight: 1, off: []uint32{0}}
	for aid := int64(1); aid < int64(len(ref)); aid++ {
		set.appendRaw([]uint32{rawLit(aid, true)})
	}
	res := foldRaws(ts, []RawSet{set}, Stats{})
	order := make([]uint32, 0, len(ref)-1)
	for aid := uint32(1); aid < uint32(len(ref)); aid++ {
		order = append(order, aid)
	}
	slices.SortFunc(order, func(x, y uint32) int { return cmpRefAtoms(ref[x], ref[y]) })
	if !slices.Equal(res.TableAid[1:], order) {
		t.Fatalf("%s: the fold numbers atoms %v, reference order %v", name, res.TableAid[1:], order)
	}
	for id, aid := range order {
		if got := res.MRF.Atoms[id+1]; !reflect.DeepEqual(got, ref[aid]) {
			t.Fatalf("%s: MRF atom %d is %v, reference %v", name, id+1, got, ref[aid])
		}
	}
}

// The flat atom registry answers what a []mln.GroundAtom would: after
// BuildTables on random programs with predicates of arity 0 to 3, after
// ApplyDelta stages new closed-predicate atoms, and after a RestoreTables
// round trip.
func TestAtomRegistryMatchesReference(t *testing.T) {
	arities, deltaStaged := map[int]bool{}, 0
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog, ev := randomAtomProgram(t, rng)
		for _, p := range prog.Preds {
			arities[p.Arity()] = true
		}
		ref := refAtoms(prog, ev)
		ts, err := BuildTables(db.Open(db.Config{}), prog, ev)
		if err != nil {
			t.Fatal(err)
		}
		checkRegistry(t, fmt.Sprintf("seed %d built", seed), rng, ts, ref)

		var delta mln.Delta
		for i := 0; i < 15; i++ {
			p := prog.Preds[rng.Intn(len(prog.Preds))]
			truth := mln.True
			if rng.Intn(3) == 0 {
				truth = mln.False
			}
			delta.Upsert(p, randomArgs(rng, prog, p), truth)
		}
		// The reference stages what ApplyDelta must: a closed predicate's
		// atom the first time some op makes it true.
		staged := make(map[string]bool, len(ref))
		for _, a := range ref[1:] {
			staged[registryKey(a.Pred, a.Args)] = true
		}
		for _, op := range delta.Ops {
			if key := registryKey(op.Pred, op.Args); op.Pred.Closed && op.Truth == mln.True && !staged[key] {
				staged[key] = true
				deltaStaged++
				ref = append(ref, mln.GroundAtom{Pred: op.Pred, Args: slices.Clone(op.Args)})
			}
		}
		if _, err := ts.ApplyDelta(delta); err != nil {
			t.Fatal(err)
		}
		checkRegistry(t, fmt.Sprintf("seed %d after a delta", seed), rng, ts, ref)

		exported := ts.ExportAtoms()
		restored, err := RestoreTables(db.Open(db.Config{}), prog, ts.Ev, exported)
		if err != nil {
			t.Fatal(err)
		}
		checkRegistry(t, fmt.Sprintf("seed %d restored", seed), rng, restored, ref)
	}
	if len(arities) != 4 || deltaStaged == 0 {
		t.Fatalf("the programs had arities %v and their deltas staged %d atoms; the test needs 0 to 3 and some", arities, deltaStaged)
	}
}

// An atom's Args are a view into the shared argument arena, clipped to the
// atom: appending to them, from Atom, from an exported snapshot atom or from
// the folded network's atoms, copies and never overwrites the next atom.
func TestAtomArgsDoNotWriteIntoTheArena(t *testing.T) {
	prog, ev := randomAtomProgram(t, rand.New(rand.NewSource(3)))
	ts, err := BuildTables(db.Open(db.Config{}), prog, ev)
	if err != nil {
		t.Fatal(err)
	}
	before := slices.Clone(ts.atoms.args)
	exported := ts.ExportAtoms()
	set := RawSet{weight: 1, off: []uint32{0}}
	for aid := int64(1); aid <= int64(ts.NumAtoms()); aid++ {
		set.appendRaw([]uint32{rawLit(aid, false)})
	}
	res := foldRaws(ts, []RawSet{set}, Stats{})
	views := [][]int32{}
	for aid := int64(1); aid <= int64(ts.NumAtoms()); aid++ {
		views = append(views, ts.Atom(aid).Args, exported[aid-1].Args, res.MRF.Atoms[res.IDOf(aid)].Args)
	}
	for _, v := range views {
		if cap(v) != len(v) {
			t.Fatalf("an atom's args %v carry capacity %d", v, cap(v))
		}
		grown := append(v, 0x5a5a5a5a, 0x5a5a5a5a)
		grown[0] = 0x5a5a5a5a
	}
	if !slices.Equal(ts.atoms.args, before) {
		t.Fatal("appending to an atom's args wrote into the registry's arena")
	}
}

// A registered binary atom keeps 8 + 4·2 bytes resident beside its registry
// slot and truth byte: the predicate id, the end of its arguments and the
// arguments themselves, with no header or allocation of its own.
func TestAtomRegistryMemoryBound(t *testing.T) {
	const n, arity = 100_000, 2
	prog := mln.NewProgram()
	p, err := prog.DeclarePredicate("p", []string{"t", "t"}, true)
	if err != nil {
		t.Fatal(err)
	}
	heap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	ts := &TableSet{Prog: prog, atoms: newAtomList(), truths: make([]uint8, 1)}
	before := heap()
	args := make([]int32, arity)
	for i := 0; i < n; i++ {
		args[0], args[1] = int32(i), int32(i%7)
		if _, err := ts.stageAtom(p, args, TruthTrue); err != nil {
			t.Fatal(err)
		}
	}
	ts.clip()
	resident := heap() - before - int64(4*cap(ts.reg.slots)+cap(ts.truths))
	runtime.KeepAlive(ts)
	// A fixed 32 KiB beside the per-atom bound covers aid 0 and the
	// allocator rounding each of the four large arrays (truths among them)
	// up to whole 8 KiB pages.
	if limit := int64(n*(8+4*arity) + 32<<10); resident > limit {
		t.Fatalf("%d atoms keep %d bytes (%.1f per atom), limit %d", n, resident, float64(resident)/n, limit)
	}
	if aid, ok := ts.AidOf(p, []int32{n - 1, (n - 1) % 7}); !ok || aid != n {
		t.Fatalf("last atom found as aid %d (%v)", aid, ok)
	}
}

// The assembled network's atoms are views into the current argument arena.
// Staging an atom moves the arena, which BuildTables left at exact size, and
// the Result the next Reground folds must not keep the old arena alive.
func TestAssembledAtomsFollowTheArena(t *testing.T) {
	ts := setup(t, tinyProg, tinyEv)
	inc, _, err := NewIncremental(context.Background(), ts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var delta mln.Delta
	delta.Upsert(ts.Prog.MustPredicate("friend"), []int32{ts.Prog.Constant("person", "Carl"), ts.Prog.Constant("person", "Anna")}, mln.True)
	old := ts.atoms.args
	if _, err := ts.ApplyDelta(delta); err != nil {
		t.Fatal(err)
	}
	if &ts.atoms.args[0] == &old[0] {
		t.Fatal("staging an atom did not move the argument arena")
	}
	res, _, _, err := inc.Reground(context.Background(), delta.Preds())
	if err != nil {
		t.Fatal(err)
	}
	withArgs := 0
	for id := 1; id < len(res.MRF.Atoms); id++ {
		aid := res.TableAid[id]
		if args := res.MRF.Atoms[id].Args; len(args) > 0 {
			withArgs++
			if &args[0] != &ts.atoms.args[ts.atoms.end[aid-1]] {
				t.Fatalf("atom %d's args are not a view into the current arena", id)
			}
		}
	}
	if withArgs == 0 {
		t.Fatal("the network has no atom with arguments")
	}
}
