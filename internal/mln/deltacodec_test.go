package mln

import (
	"bytes"
	"encoding/hex"
	"errors"
	"flag"
	"os"
	"reflect"
	"strings"
	"testing"

	"tuffy/internal/codec"
)

// updateGolden rewrites testdata/delta.golden from the code under test. The
// committed record was captured BEFORE internal/codec replaced this file's
// hand-rolled reader: the same bytes are a WAL TypeDelta payload and the
// body of the wire's update fan-out, so both must keep decoding.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/delta.golden")

const goldenDelta = "testdata/delta.golden"

// figure1Delta covers all three truth values, a closed and an open
// predicate, over the Figure 1 program.
func figure1Delta(t testing.TB) (*Program, Delta) {
	t.Helper()
	prog, err := ParseProgramString(Figure1Program)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseEvidenceString(prog, Figure1Evidence); err != nil {
		t.Fatal(err)
	}
	id := func(name string) int32 {
		c, ok := prog.Syms.Lookup(name)
		if !ok {
			t.Fatalf("constant %s missing", name)
		}
		return c
	}
	var d Delta
	d.Upsert(prog.MustPredicate("refers"), []int32{id("P2"), id("P3")}, True)
	d.Upsert(prog.MustPredicate("cat"), []int32{id("P1"), id("DB")}, False)
	d.Remove(prog.MustPredicate("wrote"), []int32{id("Jake"), id("P3")})
	return prog, d
}

func TestGoldenDeltaRecord(t *testing.T) {
	prog, d := figure1Delta(t)
	got := EncodeDelta(PredIndex(prog), d)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenDelta, []byte(hex.EncodeToString(got)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(goldenDelta)
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if hex.EncodeToString(got) != hex.EncodeToString(want) {
		t.Fatalf("delta encoding changed:\n got %x\nwant %x", got, want)
	}
	back, err := DecodeDelta(prog, want)
	if err != nil || !reflect.DeepEqual(back, d) {
		t.Fatalf("golden delta decodes to %+v (err %v), want %+v", back, err, d)
	}
}

// A truth byte outside Unknown/True/False must be rejected, not cast: the
// record comes off a disk or a socket, and an out-of-range Truth applied as
// evidence is none of the three values the grounder understands.
func TestDecodeDeltaRejectsBadTruth(t *testing.T) {
	prog, d := figure1Delta(t)
	rec := EncodeDelta(PredIndex(prog), d)
	const truthOff = 4 + 4 // op count, first op's predicate index
	if Truth(rec[truthOff]) != True {
		t.Fatalf("byte %d is not the first op's truth", truthOff)
	}
	for _, bad := range []byte{3, 0x7F, 0x80, 0xFF} {
		rec[truthOff] = bad
		if _, err := DecodeDelta(prog, rec); !errors.Is(err, codec.ErrMalformed) {
			t.Errorf("truth byte %#x: err = %v, want codec.ErrMalformed", bad, err)
		}
	}
}

// FuzzDecodeDelta: arbitrary bytes against a fixed program never panic, and
// whatever decodes holds only predicates of the program, truth values of
// the three-valued domain and argument lists of the declared arity — and
// re-encodes to the bytes it came from.
func FuzzDecodeDelta(f *testing.F) {
	prog, d := figure1Delta(f)
	idx := PredIndex(prog)
	f.Add(EncodeDelta(idx, d))
	f.Add(EncodeDelta(idx, Delta{}))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{1, 0, 0, 0, 9, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeDelta(prog, data)
		if err != nil {
			if !errors.Is(err, codec.ErrMalformed) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		for i, op := range got.Ops {
			if _, ok := idx[op.Pred]; !ok || op.Truth < Unknown || op.Truth > False || len(op.Args) != op.Pred.Arity() {
				t.Fatalf("op %d decoded out of range: %+v", i, op)
			}
		}
		if back := EncodeDelta(idx, got); !bytes.Equal(back, data) {
			t.Fatalf("accepted record does not re-encode to itself:\n in  %x\n out %x", data, back)
		}
	})
}
