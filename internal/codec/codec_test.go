package codec

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"
)

// sample writes one value through every primitive.
func sample() *Enc {
	var e Enc
	e.Raw([]byte("MAGIC"))
	e.U8(0xAB)
	e.U32(0xDEADBEEF)
	e.U64(0x0123456789ABCDEF)
	e.F64(math.Inf(-1))
	e.U32(2)
	e.Raw([]byte("ab"))
	return &e
}

func TestRoundTrip(t *testing.T) {
	d := NewDec(sample().Buf())
	if got := string(d.Raw(5)); got != "MAGIC" {
		t.Fatalf("Raw: %q", got)
	}
	if d.U8() != 0xAB || d.U32() != 0xDEADBEEF || d.U64() != 0x0123456789ABCDEF || !math.IsInf(d.F64(), -1) {
		t.Fatal("scalar round trip")
	}
	if got := string(d.Raw(d.Count(1))); got != "ab" {
		t.Fatalf("counted Raw: %q", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

// The layout is little-endian with no padding and no field tags — spelled
// out once here, pinned per format by the callers' golden files.
func TestLayout(t *testing.T) {
	var e Enc
	e.U8(0x01)
	e.U32(0x03040506)
	e.U64(0x0708090A0B0C0D0E)
	e.F64(1)
	want := []byte{0x01, 0x06, 0x05, 0x04, 0x03, 0x0E, 0x0D, 0x0C, 0x0B, 0x0A, 0x09, 0x08, 0x07,
		0, 0, 0, 0, 0, 0, 0xF0, 0x3F}
	if !bytes.Equal(e.Buf(), want) {
		t.Fatalf("layout %x, want %x", e.Buf(), want)
	}
}

func TestErrorsLatch(t *testing.T) {
	full := sample().Buf()
	for cut := 0; cut < len(full); cut++ {
		d := NewDec(full[:cut])
		d.Raw(5)
		d.U8()
		d.U32()
		d.U64()
		d.F64()
		d.Raw(d.Count(1))
		first := d.Err()
		if !errors.Is(first, ErrMalformed) {
			t.Fatalf("cut at %d: err = %v", cut, first)
		}
		d.Failf("a later defect")
		if d.U32() != 0 || d.Finish() != first {
			t.Fatalf("cut at %d: the first failure did not stay latched", cut)
		}
	}
	d := NewDec(append(full, 0))
	d.Raw(len(full))
	if err := d.Finish(); !errors.Is(err, ErrMalformed) {
		t.Fatalf("trailing byte: %v", err)
	}
}

// A count field may claim up to 4G elements; nothing is allocated for a
// claim the remaining input cannot back.
func TestHugeLengthsRejected(t *testing.T) {
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3}
	for name, read := range map[string]func(*Dec) any{
		"Count": func(d *Dec) any { return d.Count(2) },
		"Raw":   func(d *Dec) any { return d.Raw(d.Count(0)) },
	} {
		d := NewDec(huge)
		if got := read(d); !reflect.ValueOf(got).IsZero() || !errors.Is(d.Err(), ErrMalformed) {
			t.Errorf("%s: got %v, err %v", name, got, d.Err())
		}
	}
}

// FuzzDec drives arbitrary bytes through every primitive, the first bytes
// choosing which: no input panics, a failure is typed and stays latched,
// and no count admits more elements than the input could hold.
func FuzzDec(f *testing.F) {
	f.Add(sample().Buf())
	f.Add([]byte{})
	f.Add([]byte{5, 4, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{4, 0xC8, 1, 2})
	f.Add([]byte{5, 4, 2, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDec(data)
		var first error
		for steps := 0; steps < 64 && d.off < len(data); steps++ {
			switch op := d.U8() % 6; op {
			case 0:
				d.U8()
			case 1:
				d.U32()
			case 2:
				d.U64()
			case 3:
				d.F64()
			case 4:
				if n := len(d.Raw(int(d.U8()))); n > len(data) {
					t.Fatalf("Raw returned %d bytes of %d", n, len(data))
				}
			case 5:
				minBytes := int(d.U8() % 16)
				n := d.Count(minBytes)
				if d.Err() != nil && n != 0 {
					t.Fatalf("Count returned %d after a failure", n)
				}
				if minBytes > 0 && n*minBytes > len(data) {
					t.Fatalf("Count admitted %d elements of %d bytes from %d input bytes", n, minBytes, len(data))
				}
			}
			if first == nil {
				first = d.Err()
			}
			if first != nil && (d.Err() != first || !errors.Is(first, ErrMalformed)) {
				t.Fatalf("failure not latched or not typed: first %v, now %v", first, d.Err())
			}
		}
		if err := d.Finish(); first != nil && err != first {
			t.Fatalf("Finish reported %v, first failure was %v", err, first)
		}
	})
}
