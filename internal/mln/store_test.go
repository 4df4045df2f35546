package mln

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// storeID draws an id from the ranges the packed order treats differently:
// the byte boundaries 255/256 and 65535/65536 and their neighbours, the
// 24-bit boundary, negative ids and the int32 extremes.
func storeID(rng *rand.Rand) int32 {
	edges := []int32{0, 1, 255, 256, 257, 511, 65535, 65536, 65537, 1<<24 - 1, 1 << 24, -1, -2, -256, -65536, 1<<31 - 1, -1 << 31}
	switch rng.Intn(4) {
	case 0:
		return edges[rng.Intn(len(edges))]
	case 1:
		return int32(rng.Intn(70_000)) - 2_000
	case 2:
		return rng.Int31() - rng.Int31()
	default:
		return int32(rng.Intn(600))
	}
}

// TestEvidenceForEachOrder drives predicates of arity 0 to 3 through
// Upsert/Remove churn and checks, after every round, that ForEach visits
// exactly the reference's tuples with their truths in ascending argKey
// order, the order the string-keyed store it replaced produced.
func TestEvidenceForEachOrder(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := NewProgram()
		var preds []*Predicate
		for arity := 0; arity <= 3; arity++ {
			p, err := prog.DeclarePredicate(fmt.Sprintf("p%d", arity), make([]string, arity), arity%2 == 0)
			if err != nil {
				t.Fatal(err)
			}
			preds = append(preds, p)
		}
		ev := NewEvidence(prog)
		refs := make([]map[string]Truth, len(preds))
		for i := range refs {
			refs[i] = map[string]Truth{}
		}
		kept := make([][][]int32, len(preds)) // every tuple drawn, per predicate
		for round := 0; round < 30; round++ {
			for op := 0; op < 400; op++ {
				pi := rng.Intn(len(preds))
				p, ref := preds[pi], refs[pi]
				var args []int32
				if len(kept[pi]) > 0 && rng.Intn(2) == 0 {
					args = kept[pi][rng.Intn(len(kept[pi]))]
				} else {
					args = make([]int32, p.Arity())
					for i := range args {
						args[i] = storeID(rng)
					}
					kept[pi] = append(kept[pi], args)
				}
				k := argKey(args)
				wantPrev, wantOK := ref[k]
				var prev Truth
				var ok bool
				switch rng.Intn(5) {
				case 0:
					ok = ev.Remove(p, args)
					prev = wantPrev
					delete(ref, k)
				case 1:
					prev, ok = ev.Upsert(p, args, Unknown)
					delete(ref, k)
				default:
					tr := True
					if rng.Intn(3) == 0 {
						tr = False
					}
					prev, ok = ev.Upsert(p, args, tr)
					ref[k] = tr
				}
				if ok != wantOK || (ok && prev != wantPrev) {
					t.Fatalf("seed %d round %d: %s%v: previous (%v, %v), want (%v, %v)",
						seed, round, p.Name, args, prev, ok, wantPrev, wantOK)
				}
			}
			total := 0
			for pi, p := range preds {
				ref := refs[pi]
				keys := make([]string, 0, len(ref))
				for k := range ref {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				var got []string
				ev.ForEach(p, func(args []int32, tr Truth) {
					k := argKey(args)
					if ref[k] != tr {
						t.Fatalf("seed %d round %d: %s%v has truth %v, want %v", seed, round, p.Name, args, tr, ref[k])
					}
					got = append(got, k)
				})
				if !slices.Equal(got, keys) {
					t.Fatalf("seed %d round %d: %s visited %d tuples out of argKey order or set (want %d)",
						seed, round, p.Name, len(got), len(keys))
				}
				if ev.Count(p) != len(ref) {
					t.Fatalf("seed %d round %d: Count(%s) = %d, want %d", seed, round, p.Name, ev.Count(p), len(ref))
				}
				for _, args := range kept[pi] {
					tr, ok := ev.Get(p, args)
					want, wantOK := ref[argKey(args)]
					if ok != wantOK || tr != want {
						t.Fatalf("seed %d round %d: Get(%s%v) = (%v, %v), want (%v, %v)", seed, round, p.Name, args, tr, ok, want, wantOK)
					}
				}
				total += len(ref)
			}
			if ev.Total() != total {
				t.Fatalf("seed %d round %d: Total = %d, want %d", seed, round, ev.Total(), total)
			}
			if round%10 == 9 {
				c := ev.Clone()
				for _, p := range preds {
					if !slices.EqualFunc(forEachTuples(c, p), forEachTuples(ev, p), slices.Equal) {
						t.Fatalf("seed %d round %d: Clone of %s differs", seed, round, p.Name)
					}
				}
			}
		}
	}
}

// TestEvidenceDeltaAndInverseDoNotGrow: applying a delta and its inverse
// over and over, as a server alternating an update and its undo does,
// revives the tombstones the removals left and never grows the tables.
func TestEvidenceDeltaAndInverseDoNotGrow(t *testing.T) {
	prog := NewProgram()
	p, _ := prog.DeclarePredicate("p", []string{"t", "t"}, true)
	ev := NewEvidence(prog)
	for i := int32(0); i < 300; i++ {
		if err := ev.Assert(p, []int32{i, (i * 7) % 300}, false); err != nil {
			t.Fatal(err)
		}
	}
	var d Delta
	for i := int32(0); i < 40; i++ {
		d.Remove(p, []int32{i, (i * 7) % 300})
		d.Upsert(p, []int32{i, (i + 1) % 300}, True)
		d.Upsert(p, []int32{i + 100, (i*7 + 700) % 300}, False)
	}
	r := ev.rel(p)
	var sizes [3]int
	for rep := 0; rep < 20; rep++ {
		inv, err := ev.Apply(d)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ev.Apply(inv); err != nil {
			t.Fatal(err)
		}
		now := [3]int{len(r.truths), cap(r.args), len(r.index)}
		if rep > 0 && now != sizes {
			t.Fatalf("rep %d: slots, argument capacity and index %v, after the first round trip %v", rep, now, sizes)
		}
		sizes = now
		if ev.Count(p) != 300 || ev.Total() != 300 {
			t.Fatalf("rep %d: %d tuples, want 300", rep, ev.Count(p))
		}
	}
}

// TestSymbolsAndDomainsMatchMaps interns random names, some again, and
// adds ids to a domain, against maps.
func TestSymbolsAndDomainsMatchMaps(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := NewSymbols()
	ids := map[string]int32{}
	d := NewDomain("t")
	members := map[int32]bool{}
	var order []int32
	for i := 0; i < 20_000; i++ {
		name := fmt.Sprintf("c%d", rng.Intn(8_000))
		id := s.Intern(name)
		if want, ok := ids[name]; ok && id != want {
			t.Fatalf("Intern(%q) = %d, first %d", name, id, want)
		} else if !ok {
			if int(id) != len(ids) {
				t.Fatalf("Intern(%q) = %d, want the next id %d", name, id, len(ids))
			}
			ids[name] = id
		}
		c := id
		if rng.Intn(10) == 0 {
			c = -id - 1 // ids outside the bitset's window
		}
		d.Add(c)
		if !members[c] {
			members[c] = true
			order = append(order, c)
		}
	}
	for name, id := range ids {
		if got, ok := s.Lookup(name); !ok || got != id || s.Name(id) != name {
			t.Fatalf("%q: Lookup (%d, %v), Name %q, want id %d", name, got, ok, s.Name(id), id)
		}
	}
	if _, ok := s.Lookup("absent"); ok || s.Len() != len(ids) {
		t.Fatalf("Lookup of an absent name succeeded or Len %d != %d", s.Len(), len(ids))
	}
	if !slices.Equal(d.Consts, order) || d.Size() != len(members) {
		t.Fatal("Domain.Consts lost insertion order")
	}
	for c := int32(-9_000); c < 9_000; c++ {
		if d.Contains(c) != members[c] {
			t.Fatalf("Contains(%d) = %v", c, !members[c])
		}
	}
}
