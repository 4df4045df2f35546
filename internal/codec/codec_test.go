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
	e.U16(0xBEEF)
	e.U32(0xDEADBEEF)
	e.U64(0x0123456789ABCDEF)
	e.I64(-42)
	e.F64(math.Inf(-1))
	e.Bool(true)
	e.Bool(false)
	e.Bytes([]byte{1, 2, 3})
	e.Str("héllo")
	e.Bits([]bool{true, false, true, true, false, false, false, true, true})
	e.Floats([]float64{0.25, 1.0 / 3})
	return &e
}

func TestRoundTrip(t *testing.T) {
	d := NewDec(sample().Buf())
	if got := string(d.Raw(5)); got != "MAGIC" {
		t.Fatalf("Raw: %q", got)
	}
	if d.U8() != 0xAB || d.U16() != 0xBEEF || d.U32() != 0xDEADBEEF || d.U64() != 0x0123456789ABCDEF ||
		d.I64() != -42 || !math.IsInf(d.F64(), -1) || !d.Bool() || d.Bool() {
		t.Fatal("scalar round trip")
	}
	if got := d.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("Bytes: %v", got)
	}
	if got := d.Str(); got != "héllo" {
		t.Fatalf("Str: %q", got)
	}
	// lead 1: the caller's vectors are 1-based, the gap is put back.
	if got, want := d.Bits(1), []bool{false, true, false, true, true, false, false, false, true, true}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Bits: %v", got)
	}
	if got, want := d.Floats(0), []float64{0.25, 1.0 / 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Floats: %v", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

// The layout is little-endian with u32 length prefixes and bits packed
// lowest first — spelled out once here, pinned per format by the callers'
// golden files.
func TestLayout(t *testing.T) {
	var e Enc
	e.U16(0x0102)
	e.U32(0x03040506)
	e.Str("ab")
	e.Bits([]bool{true, false, false, false, false, false, false, false, true})
	want := []byte{0x02, 0x01, 0x06, 0x05, 0x04, 0x03, 2, 0, 0, 0, 'a', 'b', 9, 0, 0, 0, 0x01, 0x01}
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
		d.U16()
		d.U32()
		d.U64()
		d.I64()
		d.F64()
		d.Bool()
		d.Bool()
		d.Bytes()
		d.Str()
		d.Bits(1)
		d.Floats(0)
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

// A length field may claim up to 4G elements; nothing is allocated for a
// claim the remaining input cannot back.
func TestHugeLengthsRejected(t *testing.T) {
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3}
	for name, read := range map[string]func(*Dec) any{
		"Count":  func(d *Dec) any { return d.Count(2) },
		"Bytes":  func(d *Dec) any { return d.Bytes() },
		"Str":    func(d *Dec) any { return d.Str() },
		"Bits":   func(d *Dec) any { return d.Bits(1) },
		"Floats": func(d *Dec) any { return d.Floats(1) },
	} {
		d := NewDec(huge)
		if got := read(d); !reflect.ValueOf(got).IsZero() || !errors.Is(d.Err(), ErrMalformed) {
			t.Errorf("%s: got %v, err %v", name, got, d.Err())
		}
	}
}

// FuzzDec drives arbitrary bytes through every primitive, the first bytes
// choosing which: no input panics, a failure is typed and stays latched,
// and no vector comes back longer than the input could have encoded
// (bytes and floats at most len(input), bits at most 8x).
func FuzzDec(f *testing.F) {
	f.Add(sample().Buf())
	f.Add([]byte{})
	f.Add([]byte{9, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{10, 0xFF, 0xFF, 0xFF, 0x7F, 1})
	f.Add([]byte{11, 2, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDec(data)
		var first error
		for steps := 0; steps < 64 && d.off < len(data); steps++ {
			switch op := d.U8() % 13; op {
			case 0:
				d.U8()
			case 1:
				d.U16()
			case 2:
				d.U32()
			case 3:
				d.U64()
			case 4:
				d.I64()
			case 5:
				d.F64()
			case 6:
				d.Bool()
			case 7:
				if n := len(d.Raw(int(d.U8()))); n > len(data) {
					t.Fatalf("Raw returned %d bytes of %d", n, len(data))
				}
			case 8:
				if n := d.Count(int(d.U8() % 16)); d.Err() != nil && n != 0 {
					t.Fatalf("Count returned %d after a failure", n)
				}
			case 9:
				if n := len(d.Bytes()); n > len(data) {
					t.Fatalf("Bytes allocated %d for %d input bytes", n, len(data))
				}
			case 10:
				if n := len(d.Bits(1)); n > 8*len(data)+1 {
					t.Fatalf("Bits allocated %d for %d input bytes", n, len(data))
				}
			case 11:
				if n := len(d.Floats(1)); n > len(data)/8+1 {
					t.Fatalf("Floats allocated %d for %d input bytes", n, len(data))
				}
			case 12:
				if n := len(d.Str()); n > len(data) {
					t.Fatalf("Str allocated %d for %d input bytes", n, len(data))
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
