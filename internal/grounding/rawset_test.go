package grounding

import (
	"context"
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"

	"tuffy/internal/codec"
	"tuffy/internal/datagen"
)

// mkSet builds a RawSet from literal lists; pos and neg spell its literals.
func mkSet(weight float64, raws ...[]uint64) RawSet {
	s := RawSet{weight: weight}
	for _, raw := range raws {
		s.appendRaw(raw)
	}
	return s
}

// sameSet compares two sets raw for raw, bit for bit; a set with no raws
// equals another whether or not it ever allocated.
func sameSet(a, b RawSet) bool {
	if a.n() != b.n() || math.Float64bits(a.weight) != math.Float64bits(b.weight) {
		return false
	}
	for j := 0; j < a.n(); j++ {
		if !slices.Equal(a.raw(j), b.raw(j)) {
			return false
		}
	}
	return true
}

func pos(aid int64) uint64 { return rawLit(aid, true) }
func neg(aid int64) uint64 { return rawLit(aid, false) }

// smallCase is a small generated instance with a predicate whose evidence
// a delta can change.
type smallCase struct {
	ds   *datagen.Dataset
	pred string
}

func smallDatasets() []smallCase {
	return []smallCase{
		{datagen.IE(datagen.IEConfig{Chains: 30, Seed: 13}), "hint"},
		{datagen.ER(datagen.ERConfig{Records: 12, Groups: 4, Seed: 3}), "simHigh"},
		{datagen.LP(datagen.LPConfig{Profs: 5, Students: 16, Courses: 8, Seed: 13}), "publishedWith"},
		{datagen.RC(datagen.RCConfig{Papers: 60, Authors: 30, Categories: 4, Clusters: 12, Seed: 11}), "refers"},
	}
}

// requireSameBits is assertIdentical plus the float bits reflect.DeepEqual
// cannot tell apart (0 and -0).
func requireSameBits(t *testing.T, name string, want, got *Result) {
	t.Helper()
	assertIdentical(t, name, want, got)
	if math.Float64bits(want.MRF.FixedCost) != math.Float64bits(got.MRF.FixedCost) {
		t.Fatalf("%s: fixed cost bits differ: %v vs %v", name, want.MRF.FixedCost, got.MRF.FixedCost)
	}
	for i, c := range want.MRF.Clauses {
		if math.Float64bits(c.Weight) != math.Float64bits(got.MRF.Clauses[i].Weight) {
			t.Fatalf("%s: clause %d weight bits differ: %v vs %v", name, i, c.Weight, got.MRF.Clauses[i].Weight)
		}
	}
}

// requireFlat asserts what an Incremental retains per clause is the flat
// form at (nearly) its information content: 8 bytes per literal and 4 per
// offset, with at most a quarter of slack for allocator size classes.
func requireFlat(t *testing.T, name string, inc *Incremental) {
	t.Helper()
	for i, s := range inc.perClause {
		if s.n() == 0 {
			continue
		}
		retained := 8*cap(s.lits) + 4*cap(s.off)
		if ideal := 8*len(s.lits) + 4*(s.n()+1); float64(retained) > 1.25*float64(ideal) {
			t.Fatalf("%s: clause %d retains %d bytes for %d raws / %d literals (ideal %d)",
				name, i, retained, s.n(), len(s.lits), ideal)
		}
	}
}

// TestColdAssemblyMatchesAssembler pins the two invariants of the deferred
// assembler: the plain fold NewIncremental returns is the Result an eagerly
// built assembler produces over the same raws, and the assembler appears at
// the first Reground — never under UseClosure — after which a delta and its
// inverse land back on the cold Result bit for bit.
func TestColdAssemblyMatchesAssembler(t *testing.T) {
	ctx := context.Background()
	for _, tc := range smallDatasets() {
		for _, closure := range []bool{false, true} {
			name := tc.ds.Name
			if closure {
				name += "/closure"
			}
			t.Run(name, func(t *testing.T) {
				opts := Options{UseClosure: closure}
				ts := buildTS(t, tc.ds.Prog, tc.ds.Ev.Clone())
				inc, cold, err := NewIncremental(ctx, ts, opts)
				if err != nil {
					t.Fatal(err)
				}
				if inc.asm != nil {
					t.Fatal("NewIncremental built the assembler")
				}
				requireFlat(t, "cold", inc)
				if !closure {
					eager := newIncAssembler(ts, len(inc.perClause))
					eager.build(inc.perClause)
					requireSameBits(t, "cold vs eager assembler", eager.result(inc.perStats), cold)
				}

				delta := datagen.RandomDelta(tc.ds, tc.pred, 6, 99)
				undo, err := ts.ApplyDelta(delta)
				if err != nil {
					t.Fatal(err)
				}
				_, _, info, err := inc.Reground(ctx, delta.Preds())
				if err != nil {
					t.Fatal(err)
				}
				if info.RawsAdded+info.RawsRemoved == 0 {
					t.Fatal("delta changed no grounding; pick another seed")
				}
				if built := inc.asm != nil; built == closure {
					t.Fatalf("assembler built after the first Reground: %v (UseClosure %v)", built, closure)
				}
				if (info.AssemblerBuild > 0) == closure {
					t.Fatalf("first Reground reports AssemblerBuild %v (UseClosure %v)", info.AssemblerBuild, closure)
				}
				requireFlat(t, "after delta", inc)

				inverse := undo.Inverse()
				if _, err := ts.ApplyDelta(inverse); err != nil {
					t.Fatal(err)
				}
				back, _, info, err := inc.Reground(ctx, inverse.Preds())
				if err != nil {
					t.Fatal(err)
				}
				if info.AssemblerBuild != 0 {
					t.Fatalf("second Reground reports AssemblerBuild %v", info.AssemblerBuild)
				}
				// Effort counters and the registry size (closed inserts stage
				// atoms for good) describe the path taken, not the network.
				back.Stats.JoinRowsVisited, back.Stats.PeakBytes, back.Stats.NumAtoms =
					cold.Stats.JoinRowsVisited, cold.Stats.PeakBytes, cold.Stats.NumAtoms
				requireSameBits(t, "delta then inverse vs cold", cold, back)
				requireFlat(t, "after inverse", inc)
			})
		}
	}
}

// TestRawSetIsFlat: the one form a raw grounding has is pointer-free — a
// weight and slices of fixed-width integers, nothing per raw for the garbage
// collector to follow. (That no second form exists beside it is a CI lint.)
func TestRawSetIsFlat(t *testing.T) {
	ty := reflect.TypeOf(RawSet{})
	for i := 0; i < ty.NumField(); i++ {
		switch f := ty.Field(i); f.Type.Kind() {
		case reflect.Float64:
		case reflect.Slice:
			if k := f.Type.Elem().Kind(); k != reflect.Uint32 && k != reflect.Uint64 {
				t.Fatalf("RawSet.%s holds %v per raw", f.Name, f.Type.Elem())
			}
		default:
			t.Fatalf("RawSet.%s is a %v", f.Name, f.Type)
		}
	}
	if f, _ := reflect.TypeOf(Incremental{}).FieldByName("perClause"); f.Type != reflect.TypeOf([]RawSet(nil)) {
		t.Fatalf("Incremental retains %v per clause", f.Type)
	}
}

// TestRawSetCodec: Encode/DecodeRawSet round-trip, and the two defects the
// decoder must reject typed — raws of one clause disagreeing on weight, and
// a raw claiming more literals than there are bytes left.
func TestRawSetCodec(t *testing.T) {
	set := mkSet(1.5, []uint64{neg(3), pos(9)}, nil, []uint64{pos(4)})
	var w codec.Enc
	set.Encode(&w)
	r := codec.NewDec(w.Buf())
	if got := DecodeRawSet(r); r.Finish() != nil || !sameSet(got, set) {
		t.Fatalf("round trip: %+v (err %v), want %+v", got, r.Finish(), set)
	}
	var empty codec.Enc
	RawSet{}.Encode(&empty)
	if got := DecodeRawSet(codec.NewDec(empty.Buf())); got.n() != 0 {
		t.Fatalf("empty set decodes to %d raws", got.n())
	}

	const secondWeight = 4 + 8 + 4 + 2*8 // count, raw 0's weight, length and two literals
	mixed := append([]byte(nil), w.Buf()...)
	mixed[secondWeight] ^= 1
	r = codec.NewDec(mixed)
	if DecodeRawSet(r); !errors.Is(r.Err(), codec.ErrMalformed) {
		t.Fatalf("mixed weights: err %v", r.Err())
	}

	greedy := append([]byte(nil), w.Buf()...)
	copy(greedy[4+8:], []byte{0xFF, 0xFF, 0xFF, 0x7F}) // raw 0 claims 2^31-1 literals
	r = codec.NewDec(greedy)
	if got := DecodeRawSet(r); !errors.Is(r.Err(), codec.ErrMalformed) || cap(got.lits) > len(greedy) {
		t.Fatalf("overlong raw: err %v, %d literals allocated", r.Err(), cap(got.lits))
	}
}

// RestoreIncremental builds the assembler eagerly, refuses raws that point
// outside the atom registry, and re-grounds a delta to the same network as
// the grounder whose raws it was given.
func TestRestoreIncremental(t *testing.T) {
	ctx := context.Background()
	ds := datagen.RC(datagen.RCConfig{Papers: 60, Authors: 30, Categories: 4, Clusters: 12, Seed: 11})
	ts := buildTS(t, ds.Prog, ds.Ev.Clone())
	inc, cold, err := NewIncremental(ctx, ts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sets, stats := inc.Raws()
	restored, res, err := RestoreIncremental(ts, Options{}, sets, stats)
	if err != nil {
		t.Fatal(err)
	}
	if restored.asm == nil {
		t.Fatal("RestoreIncremental left the assembler unbuilt")
	}
	requireSameBits(t, "restored vs cold", cold, res)

	bad := append([]RawSet(nil), sets...)
	bad[0] = mkSet(1, []uint64{pos(int64(ts.NumAtoms()) + 1)})
	if _, _, err := RestoreIncremental(ts, Options{}, bad, stats); err == nil {
		t.Fatal("raw referencing an aid outside the registry restored")
	}

	delta := datagen.RandomDelta(ds, "refers", 6, 99)
	var want *Result
	for _, g := range []*Incremental{inc, restored} {
		undo, err := ts.ApplyDelta(delta)
		if err != nil {
			t.Fatal(err)
		}
		got, _, _, err := g.Reground(ctx, delta.Preds())
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else {
			requireSameBits(t, "delta via restored", want, got)
		}
		if err := undo.Rollback(); err != nil {
			t.Fatal(err)
		}
	}
}
