package tuple

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func testSchema() Schema {
	return NewSchema(
		Col("id", TInt),
		Col("n", TInt),
		Col("tags", TIntList),
	)
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	sch := testSchema()
	row := Row{I64(42), I64(-7), IntList([]int64{1, -5, 9})}
	buf, err := Encode(sch, row)
	if err != nil {
		t.Fatal(err)
	}
	if want := 8 + 8 + 4 + 3*8; len(buf) != want {
		t.Fatalf("encoded %d bytes, want %d", len(buf), want)
	}
	got, err := Decode(sch, buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range row {
		if !row[i].Equal(got[i]) {
			t.Fatalf("col %d: %v != %v", i, got[i], row[i])
		}
	}
}

func TestEncodeRejectsMismatches(t *testing.T) {
	sch := NewSchema(Col("a", TInt))
	if _, err := Encode(sch, Row{IntList([]int64{1})}); err == nil {
		t.Fatal("kind mismatch accepted")
	}
	if _, err := Encode(sch, Row{I64(1), I64(2)}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestDecodeRejectsCorruptBuffers(t *testing.T) {
	sch := testSchema()
	row := Row{I64(1), I64(2), IntList([]int64{7})}
	buf, _ := Encode(sch, row)
	for _, cut := range []int{1, 8, 15, 19, len(buf) - 1} {
		if _, err := Decode(sch, buf[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := Decode(sch, append(buf, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// DecodeInto decodes a list into the list its destination already holds
// when that one is large enough, allocating only when it is not, and never
// aliases the encoded bytes; a destination of the wrong arity is an error.
func TestDecodeIntoReusesLists(t *testing.T) {
	sch := testSchema()
	enc := func(tags ...int64) []byte {
		buf, err := Encode(sch, Row{I64(1), I64(2), IntList(tags)})
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	dst := make(Row, 3)
	if err := DecodeInto(sch, enc(4, 5, 6), dst); err != nil {
		t.Fatal(err)
	}
	first := &dst[2].List[0]
	if allocs := testing.AllocsPerRun(10, func() {
		if err := DecodeInto(sch, enc(7), dst); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 { // the encoded buffer alone
		t.Fatalf("decoding a shorter list allocates %v times besides the encoding", allocs-1)
	}
	if &dst[2].List[0] != first || len(dst[2].List) != 1 || dst[2].List[0] != 7 {
		t.Fatalf("shorter list not decoded in place: %v", dst[2])
	}
	if err := DecodeInto(sch, enc(), dst); err != nil || dst[2].List == nil || len(dst[2].List) != 0 {
		t.Fatalf("empty list decoded as %#v (err %v)", dst[2].List, err)
	}
	buf := enc(8, 9, 10, 11)
	if err := DecodeInto(sch, buf, dst); err != nil || len(dst[2].List) != 4 || dst[2].List[3] != 11 {
		t.Fatalf("longer list decoded as %v (err %v)", dst[2], err)
	}
	buf[len(buf)-8] = 0
	if dst[2].List[3] != 11 {
		t.Fatal("decoded list aliases the encoded bytes")
	}
	if err := DecodeInto(sch, buf, make(Row, 2)); err == nil {
		t.Fatal("destination of the wrong arity accepted")
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	sch := NewSchema(Col("i", TInt), Col("l", TIntList))
	f := func(i int64, l []int64) bool {
		row := Row{I64(i), IntList(l)}
		buf, err := Encode(sch, row)
		if err != nil {
			return false
		}
		got, err := Decode(sch, buf)
		if err != nil {
			return false
		}
		return got[0].I == i && got[1].Equal(row[1])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{I64(1), I64(2), -1},
		{I64(2), I64(2), 0},
		{I64(3), I64(2), 1},
		{IntList([]int64{1, 2}), IntList([]int64{1, 3}), -1},
		{IntList([]int64{1}), IntList([]int64{1, 0}), -1},
		{IntList([]int64{2}), IntList([]int64{1, 9}), 1},
	}
	for i, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Fatalf("case %d: Compare(%v,%v) = %d, want %d", i, c.a, c.b, got, c.want)
		}
	}
}

func TestValueEqualAcrossKinds(t *testing.T) {
	if I64(1).Equal(IntList([]int64{1})) {
		t.Fatal("int equals one-element list")
	}
	if !IntList([]int64{1, 2}).Equal(IntList([]int64{1, 2})) {
		t.Fatal("equal lists unequal")
	}
	if IntList([]int64{1}).Equal(IntList([]int64{1, 2})) {
		t.Fatal("prefix equals longer list")
	}
}

// EncodeKey must be order-preserving for int64 (including negatives).
func TestEncodeKeyOrderPreservingProperty(t *testing.T) {
	f := func(a, b int64) bool {
		ka := EncodeKey(Row{I64(a)}, []int{0})
		kb := EncodeKey(Row{I64(b)}, []int{0})
		switch {
		case a < b:
			return ka < kb
		case a > b:
			return ka > kb
		default:
			return ka == kb
		}
	}
	cfg := &quick.Config{MaxCount: 500}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
	// Explicit boundary cases quick may miss.
	vals := []int64{math.MinInt64, -1, 0, 1, math.MaxInt64}
	keys := make([]string, len(vals))
	for i, v := range vals {
		keys[i] = EncodeKey(Row{I64(v)}, []int{0})
	}
	if !sort.StringsAreSorted(keys) {
		t.Fatalf("boundary keys unordered: %q", keys)
	}
}

func TestEncodeKeyMultiColumn(t *testing.T) {
	r1 := Row{I64(1), I64(-1)}
	r2 := Row{I64(1), I64(-2)}
	k1 := EncodeKey(r1, []int{0, 1})
	k2 := EncodeKey(r2, []int{0, 1})
	if k1 <= k2 {
		t.Fatal("second column ignored")
	}
	// Key on subset of columns.
	if EncodeKey(r1, []int{0}) != EncodeKey(r2, []int{0}) {
		t.Fatal("first-column keys should match")
	}
}

func TestSchemaHelpers(t *testing.T) {
	sch := testSchema()
	if sch.Arity() != 3 {
		t.Fatalf("arity = %d", sch.Arity())
	}
	if sch.ColIndex("N") != 1 {
		t.Fatal("ColIndex should be case-insensitive")
	}
	if sch.ColIndex("missing") != -1 {
		t.Fatal("missing column found")
	}
	cat := sch.Concat(NewSchema(Col("x", TInt)))
	if cat.Arity() != 4 || cat.Cols[3].Name != "x" {
		t.Fatalf("Concat = %v", cat)
	}
	if sch.String() == "" || TInt.String() != "BIGINT" {
		t.Fatal("String methods broken")
	}
}

func TestRowClone(t *testing.T) {
	r := Row{I64(1), IntList([]int64{1, 2})}
	c := r.Clone()
	c[1].List[0] = 99
	if r[1].List[0] == 99 {
		t.Fatal("Clone shares list storage")
	}
}
