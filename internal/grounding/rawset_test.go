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
func mkSet(weight float64, raws ...[]uint32) RawSet {
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

func pos(aid int64) uint32 { return rawLit(aid, true) }
func neg(aid int64) uint32 { return rawLit(aid, false) }

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
	for i, w := range want.MRF.W {
		if math.Float64bits(w) != math.Float64bits(got.MRF.W[i]) {
			t.Fatalf("%s: clause %d weight bits differ: %v vs %v", name, i, w, got.MRF.W[i])
		}
	}
}

// requireFlat asserts what an Incremental retains per clause is the flat
// form at (nearly) its information content: 4 bytes per literal and 4 per
// offset, with at most a quarter of slack for allocator size classes, and
// no offsets at all when every raw has one non-zero width.
func requireFlat(t *testing.T, name string, inc *Incremental) {
	t.Helper()
	for i, s := range inc.perClause {
		if s.n() == 0 {
			continue
		}
		if s.off != nil && s.commonWidth() > 0 {
			t.Fatalf("%s: clause %d keeps %d offsets for raws of one width %d", name, i, len(s.off), s.commonWidth())
		}
		ideal := 4 * len(s.lits)
		if s.width == 0 {
			ideal += 4 * (s.n() + 1)
		}
		if retained := 4*cap(s.lits) + 4*cap(s.off); float64(retained) > 1.25*float64(ideal) {
			t.Fatalf("%s: clause %d retains %d bytes for %d raws / %d literals (ideal %d)",
				name, i, retained, s.n(), len(s.lits), ideal)
		}
	}
}

// TestRawSetIsFlat: the one form a raw grounding has is pointer-free — a
// weight, one 32-bit width and slices of 32-bit integers, nothing per raw
// for the garbage collector to follow. (That no second form exists beside
// it is a CI lint.)
func TestRawSetIsFlat(t *testing.T) {
	ty := reflect.TypeOf(RawSet{})
	widths := 0
	for i := 0; i < ty.NumField(); i++ {
		switch f := ty.Field(i); f.Type.Kind() {
		case reflect.Float64:
		case reflect.Uint32:
			widths++
		case reflect.Slice:
			if k := f.Type.Elem().Kind(); k != reflect.Uint32 {
				t.Fatalf("RawSet.%s holds %v per raw", f.Name, f.Type.Elem())
			}
		default:
			t.Fatalf("RawSet.%s is a %v", f.Name, f.Type)
		}
	}
	if widths != 1 {
		t.Fatalf("RawSet has %d scalar uint32 fields, want one width", widths)
	}
	if f, _ := reflect.TypeOf(Incremental{}).FieldByName("perClause"); f.Type != reflect.TypeOf([]RawSet(nil)) {
		t.Fatalf("Incremental retains %v per clause", f.Type)
	}
}

// TestRawSetCodec: Encode/DecodeRawSet round-trip, and the three defects the
// decoder must reject typed — raws of one clause disagreeing on weight, a
// raw claiming more literals than there are bytes left, and a literal that
// does not fit the 32 bits a RawSet holds it in.
func TestRawSetCodec(t *testing.T) {
	set := mkSet(1.5, []uint32{neg(3), pos(9)}, nil, []uint32{pos(4)})
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

	for _, lit := range []uint64{math.MaxUint32, math.MaxUint32 + 1, math.MaxUint64} {
		var wide codec.Enc
		wide.U32(1)
		wide.F64(1)
		wide.U32(1)
		wide.U64(lit)
		r = codec.NewDec(wide.Buf())
		got := DecodeRawSet(r)
		switch err := r.Finish(); {
		case lit <= math.MaxUint32 && (err != nil || got.n() != 1 || uint64(got.raw(0)[0]) != lit):
			t.Fatalf("literal %#x: err %v, decoded %+v", lit, err, got)
		case lit > math.MaxUint32 && !errors.Is(err, codec.ErrMalformed):
			t.Fatalf("literal %#x beyond 32 bits: err %v", lit, err)
		}
	}
}

// A finished set whose raws share one non-zero width keeps no offsets, and
// encodes byte for byte as its offset form does; mixed widths, an empty raw
// and an empty set keep theirs.
func TestFixedWidthRawSet(t *testing.T) {
	encode := func(s RawSet) []byte {
		var w codec.Enc
		s.Encode(&w)
		return w.Buf()
	}
	for _, tc := range []struct {
		name  string
		set   RawSet
		width uint32
	}{
		{"one width", mkSet(-2, []uint32{neg(3), pos(9)}, []uint32{pos(1), pos(4)}, []uint32{neg(7), neg(8)}), 2},
		{"one raw", mkSet(1, []uint32{pos(5)}), 1},
		{"mixed widths", mkSet(1, []uint32{neg(3), pos(9)}, []uint32{pos(4)}), 0},
		{"an empty raw", mkSet(1, []uint32{neg(3), pos(9)}, nil, []uint32{pos(1), pos(4)}), 0},
		{"empty raws only", mkSet(1, nil, nil), 0},
		{"no raws", RawSet{}, 0},
	} {
		want := encode(tc.set)
		r := codec.NewDec(want)
		got := DecodeRawSet(r)
		if err := r.Finish(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got.width != tc.width || got.width > 0 && got.off != nil || !sameSet(got, tc.set) {
			t.Fatalf("%s: decoded width %d, %d offsets, %d raws; want width %d, raws of %+v",
				tc.name, got.width, len(got.off), got.n(), tc.width, tc.set)
		}
		if b := encode(got); !slices.Equal(b, want) {
			t.Fatalf("%s: the decoded set encodes %x, its offset form %x", tc.name, b, want)
		}
	}
}

// RestoreIncremental folds the network a cold ground folds, refuses raws
// that point outside the atom registry, and re-grounds a delta to the same
// network as the grounder whose raws it was given.
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
	requireSameBits(t, "restored vs cold", cold, res)

	bad := append([]RawSet(nil), sets...)
	bad[0] = mkSet(1, []uint32{pos(int64(ts.NumAtoms()) + 1)})
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

// TestAidSpaceGuard: the largest aid the guard admits still packs into a
// 32-bit literal of either sign, and the next one is refused typed, as is an
// atom whose arguments would end the registry's arena past 32 bits — checked
// on the helpers themselves, without registering 2^31 atoms.
func TestAidSpaceGuard(t *testing.T) {
	if err := checkAidSpace(MaxAid); err != nil {
		t.Fatalf("aid %d refused: %v", MaxAid, err)
	}
	if pos(MaxAid) != math.MaxUint32 || neg(MaxAid)>>1 != MaxAid {
		t.Fatalf("aid %d packs to %#x / %#x", MaxAid, pos(MaxAid), neg(MaxAid))
	}
	for _, next := range []int{MaxAid + 1, math.MaxInt} {
		if err := checkAidSpace(next); !errors.Is(err, ErrAidSpace) {
			t.Fatalf("aid %d: err %v, want ErrAidSpace", next, err)
		}
	}
	// The argument arena's 32-bit ends: full is fine, one more is not.
	if err := checkArgSpace(math.MaxUint32); err != nil {
		t.Fatalf("an arena of %d arguments refused: %v", uint32(math.MaxUint32), err)
	}
	for _, end := range []int{math.MaxUint32 + 1, math.MaxInt} {
		if err := checkArgSpace(end); !errors.Is(err, ErrAidSpace) {
			t.Fatalf("arena end %d: err %v, want ErrAidSpace", end, err)
		}
	}
}
