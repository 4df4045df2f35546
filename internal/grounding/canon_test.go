package grounding

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"tuffy/internal/mln"
)

// registryPreds are predicates of arity 0 to 3 whose ids differ in every
// byte position. The comparators read only the ids, so they take them all.
var registryPreds = func() []*mln.Predicate {
	ids := []int{0, 1, 2, 255, 256, 65536, 1 << 24}
	preds := make([]*mln.Predicate, len(ids))
	for i, id := range ids {
		preds[i] = &mln.Predicate{ID: id, Args: make([]string, i%4)}
	}
	return preds
}()

// registryProg holds registryPreds but the last, each at its index in
// Preds, for tests that read atoms through TableSet.Atom: that looks a
// predicate up by id, and id 1<<24 would take 2^24 slots.
var registryProg = func() *mln.Program {
	preds := registryPreds[:len(registryPreds)-1]
	prog := &mln.Program{Preds: make([]*mln.Predicate, preds[len(preds)-1].ID+1)}
	for _, p := range preds {
		prog.Preds[p.ID] = p
	}
	return prog
}()

// randomRegistry is a TableSet of prog with nothing but an atom registry of
// up to n atoms over preds, with constants whose bytes differ in every
// position (and one that is negative as an int32). Like a real registry it
// holds each atom once.
func randomRegistry(rng *rand.Rand, n int, prog *mln.Program, preds []*mln.Predicate) *TableSet {
	consts := []int32{0, 1, 2, 3, 255, 256, 257, 65535, 65536, 1 << 24, 1<<31 - 1, -1}
	ts := &TableSet{Prog: prog, atoms: newAtomList()}
	seen := make(map[string]bool)
	for try := 0; try < 4*n && ts.NumAtoms() < n; try++ {
		p := preds[rng.Intn(len(preds))]
		args := make([]int32, p.Arity())
		for i := range args {
			args[i] = consts[rng.Intn(len(consts))]
		}
		if key := fmt.Sprint(p.ID, args); !seen[key] {
			seen[key] = true
			ts.atoms.add(p, args)
		}
	}
	return ts
}

// atomDescKey renders the aid-independent descriptor of one ground atom —
// predicate id then argument constants, each as 4 big-endian bytes — as the
// reference key whose byte order cmpAtoms must reproduce.
func atomDescKey(ts *TableSet, aid int64) string {
	b := binary.BigEndian.AppendUint32(nil, uint32(ts.atoms.pred[aid]))
	for _, c := range ts.atoms.argsOf(aid) {
		b = binary.BigEndian.AppendUint32(b, uint32(c))
	}
	return string(b)
}

// litKey and rawKey are the byte strings whose order the comparators must
// reproduce: atomDescKey plus a sign byte per literal, concatenated.
func litKey(ts *TableSet, v uint32) string {
	return atomDescKey(ts, int64(v>>1)) + string(byte(v&1))
}

func rawKey(ts *TableSet, raw []uint32) string {
	var b strings.Builder
	for _, v := range raw {
		b.WriteString(litKey(ts, v))
	}
	return b.String()
}

// randomRaws draws raws of 0 to 4 literals over few enough atoms that equal
// literals, equal raws, x v !x and proper prefixes all occur.
func randomRaws(rng *rand.Rand, ts *TableSet, n int) [][]uint32 {
	raws := make([][]uint32, n)
	for i := range raws {
		raws[i] = make([]uint32, rng.Intn(5))
		for k := range raws[i] {
			raws[i][k] = rawLit(int64(1+rng.Intn(ts.NumAtoms())), rng.Intn(2) == 0)
		}
		if i > 0 && rng.Intn(4) == 0 { // a prefix, or a copy, of the previous raw
			raws[i] = slices.Clone(raws[i-1][:rng.Intn(len(raws[i-1])+1)])
		}
	}
	return raws
}

// TestComparatorIsDescriptorByteOrder: cmpAtoms, cmpLits and cmpRaws order
// exactly as the descriptor strings they replaced (atomDescKey), predicate
// ids that differ only in their top byte included, and canonSet and
// mergeCanon produce the order a stable sort by those strings does.
func TestComparatorIsDescriptorByteOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for round := 0; round < 50; round++ {
		ts := randomRegistry(rng, 1+rng.Intn(40), nil, registryPreds)
		raws := randomRaws(rng, ts, 1+rng.Intn(60))
		for _, a := range raws {
			for _, b := range raws {
				if got, want := cmpRaws(ts, a, b), strings.Compare(rawKey(ts, a), rawKey(ts, b)); got != want {
					t.Fatalf("cmpRaws(%v, %v) = %d, keys compare %d", a, b, got, want)
				}
				for _, x := range a {
					for _, y := range b {
						if got, want := cmpLits(ts, x, y), strings.Compare(litKey(ts, x), litKey(ts, y)); got != want {
							t.Fatalf("cmpLits(%d, %d) = %d, keys compare %d", x, y, got, want)
						}
						ax, ay := int64(x>>1), int64(y>>1)
						if got, want := cmpAtoms(ts, ax, ay), strings.Compare(atomDescKey(ts, ax), atomDescKey(ts, ay)); got != want {
							t.Fatalf("cmpAtoms(%d, %d) = %d, keys compare %d", ax, ay, got, want)
						}
					}
				}
			}
		}

		// Reference: literals of each raw, then the raws, stably sorted by key.
		want := RawSet{weight: 1.5}
		ref := make([][]uint32, len(raws))
		for i, raw := range raws {
			ref[i] = slices.Clone(raw)
			sort.SliceStable(ref[i], func(a, b int) bool { return litKey(ts, ref[i][a]) < litKey(ts, ref[i][b]) })
		}
		sort.SliceStable(ref, func(a, b int) bool { return rawKey(ts, ref[a]) < rawKey(ts, ref[b]) })
		for _, raw := range ref {
			want.appendRaw(raw)
		}
		got := canonSet(ts, mkSet(1.5, raws...))
		if !sameSet(got, want) {
			t.Fatalf("canonSet:\n got %+v\nwant %+v", got, want)
		}
		if cap(got.lits) != len(got.lits) || cap(got.off) != len(got.off) {
			t.Fatalf("canonSet retains slack: lits %d/%d, off %d/%d", len(got.lits), cap(got.lits), len(got.off), cap(got.off))
		}

		// Any split of the raws into ranges merges back to the same set.
		parts := make([]RawSet, 1+rng.Intn(4))
		for i := range parts {
			parts[i].weight = 1.5
		}
		for _, raw := range raws {
			parts[rng.Intn(len(parts))].appendRaw(raw)
		}
		for i := range parts {
			parts[i] = canonSet(ts, parts[i])
		}
		merged := mergeCanon(ts, parts)
		if !sameSet(merged, want) {
			t.Fatalf("mergeCanon of %d ranges:\n got %+v\nwant %+v", len(parts), merged, want)
		}
		if cap(merged.lits) != len(merged.lits) || cap(merged.off) != len(merged.off) {
			t.Fatalf("mergeCanon retains slack")
		}
	}
	empty := canonSet(&TableSet{}, RawSet{weight: 2})
	if empty.n() != 0 || mergeCanon(&TableSet{}, []RawSet{empty, empty}).n() != 0 {
		t.Fatal("empty sets do not stay empty")
	}
}

// TestRawSetBuild: the open raw is whatever was appended since the last
// endRaw, and dropOpen discards exactly that — at the start of a set and
// after closed raws, empty raws included.
func TestRawSetBuild(t *testing.T) {
	var s RawSet
	s.lits = append(s.lits, pos(1), neg(2))
	s.dropOpen()
	s.endRaw() // an evidence-decided raw
	s.lits = append(s.lits, pos(3))
	s.endRaw()
	s.lits = append(s.lits, neg(4), neg(5))
	s.dropOpen()
	s.dropOpen()
	s.lits = append(s.lits, neg(6))
	s.endRaw()
	if want := mkSet(0, nil, []uint32{pos(3)}, []uint32{neg(6)}); !sameSet(s, want) {
		t.Fatalf("built %+v, want %+v", s, want)
	}
	if s.n() != 3 || len(s.raw(0)) != 0 || s.raw(2)[0] != neg(6) {
		t.Fatalf("n %d, raws %v %v %v", s.n(), s.raw(0), s.raw(1), s.raw(2))
	}
}

// TestAssemblyIgnoresRawOrder: permuting the raws of every retained set (and
// the literals inside each raw) leaves the plain fold and the closure fold
// bit-identical — the assembled network is a function of the multiset of
// raws, which is what lets the top-down grounder not sort at all.
func TestAssemblyIgnoresRawOrder(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	for _, tc := range smallDatasets() {
		ts := buildTS(t, tc.ds.Prog, tc.ds.Ev.Clone())
		inc, cold, err := NewIncremental(ctx, ts, Options{})
		if err != nil {
			t.Fatal(err)
		}
		shuffled := make([]RawSet, len(inc.perClause))
		moved := false
		for i, s := range inc.perClause {
			shuffled[i].weight = s.weight
			for _, j := range rng.Perm(s.n()) {
				raw := slices.Clone(s.raw(j))
				rng.Shuffle(len(raw), func(a, b int) { raw[a], raw[b] = raw[b], raw[a] })
				shuffled[i].appendRaw(raw)
			}
			moved = moved || !slices.Equal(shuffled[i].lits, s.lits)
		}
		if !moved {
			t.Fatalf("%s: the shuffle moved nothing", tc.ds.Name)
		}

		requireSameBits(t, tc.ds.Name+"/fold", cold, assembleResult(ts, shuffled, inc.perStats, Options{}))
		closure := Options{UseClosure: true}
		requireSameBits(t, tc.ds.Name+"/closure fold",
			assembleResult(ts, inc.perClause, inc.perStats, closure), assembleResult(ts, shuffled, inc.perStats, closure))

		// ... and canonSet brings every shuffled set back, byte for byte.
		for i := range shuffled {
			if got := canonSet(ts, shuffled[i]); !sameSet(got, inc.perClause[i]) {
				t.Fatalf("%s: clause %d: canonSet of the shuffle differs from the retained set", tc.ds.Name, i)
			}
		}
		if !slices.IsSortedFunc(cold.TableAid[1:], func(a, b uint32) int { return cmpAtoms(ts, int64(a), int64(b)) }) {
			t.Fatalf("%s: MRF atoms are not in descriptor order", tc.ds.Name)
		}
	}
}
