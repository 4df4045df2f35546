// Package codec is the one binary encoding every persisted or transmitted
// structure of the module is written in: the engine snapshot and the WAL's
// evidence-delta records (persist.go, internal/mln), the result-cache file
// (cachepersist.go) and every internal/wire message. Values are flat
// little-endian field sequences — no reflection, no self-description — so a
// format is exactly the order of the calls that write it, and the golden
// files under the callers' testdata pin those orders byte for byte.
//
// Enc appends; Dec reads straight through and latches its first failure, so
// a decoder checks one error at the end instead of one per field. Every
// length read from the input is validated against the bytes that remain
// BEFORE anything is allocated (Count, Bytes, Bits, Floats): hostile input
// can make a decoder fail, never make it allocate more than a small
// multiple of the input's size.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrMalformed is matched (errors.Is) by every error a Dec reports.
var ErrMalformed = errors.New("codec: malformed input")

// Enc is an append-only little-endian builder; the zero value is ready.
type Enc struct{ b []byte }

// Buf returns everything written so far.
func (e *Enc) Buf() []byte { return e.b }

// Raw appends p as is — a magic string, or an already encoded section.
func (e *Enc) Raw(p []byte) { e.b = append(e.b, p...) }

func (e *Enc) U8(v byte)     { e.b = append(e.b, v) }
func (e *Enc) U16(v uint16)  { e.b = binary.LittleEndian.AppendUint16(e.b, v) }
func (e *Enc) U32(v uint32)  { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *Enc) U64(v uint64)  { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *Enc) I64(v int64)   { e.U64(uint64(v)) }
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Bytes writes a length-prefixed byte string.
func (e *Enc) Bytes(v []byte) {
	e.U32(uint32(len(v)))
	e.b = append(e.b, v...)
}

// Str writes a length-prefixed string (the same bytes as Bytes).
func (e *Enc) Str(v string) {
	e.U32(uint32(len(v)))
	e.b = append(e.b, v...)
}

// Bits writes len(v) and then v packed eight to a byte, lowest bit first.
func (e *Enc) Bits(v []bool) {
	e.U32(uint32(len(v)))
	var cur byte
	for i, on := range v {
		if on {
			cur |= 1 << (i % 8)
		}
		if i%8 == 7 || i == len(v)-1 {
			e.b = append(e.b, cur)
			cur = 0
		}
	}
}

// Floats writes len(v) and then each value's IEEE-754 bits.
func (e *Enc) Floats(v []float64) {
	e.U32(uint32(len(v)))
	for _, f := range v {
		e.F64(f)
	}
}

// Dec reads what Enc wrote. After the first failed read every further read
// returns the zero value and Err reports that first failure.
type Dec struct {
	b   []byte
	off int
	err error
}

// NewDec reads from b, which it never modifies.
func NewDec(b []byte) *Dec { return &Dec{b: b} }

// Err returns the latched failure, if any.
func (d *Dec) Err() error { return d.err }

// Failf latches a caller-detected defect (a value the bytes encode validly
// but the format forbids) unless an earlier failure is already latched.
func (d *Dec) Failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrMalformed, fmt.Sprintf(format, args...))
	}
}

// Finish returns the latched failure, or an error if input is left over.
func (d *Dec) Finish() error {
	if d.err == nil && d.off != len(d.b) {
		d.Failf("%d trailing bytes", len(d.b)-d.off)
	}
	return d.err
}

// Raw returns the next n bytes, aliasing the input (nil after a failure).
func (d *Dec) Raw(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.b)-d.off {
		d.Failf("need %d bytes at offset %d of %d", n, d.off, len(d.b))
		return nil
	}
	v := d.b[d.off : d.off+n]
	d.off += n
	return v
}

func (d *Dec) U8() byte {
	if v := d.Raw(1); v != nil {
		return v[0]
	}
	return 0
}

func (d *Dec) U16() uint16 {
	if v := d.Raw(2); v != nil {
		return binary.LittleEndian.Uint16(v)
	}
	return 0
}

func (d *Dec) U32() uint32 {
	if v := d.Raw(4); v != nil {
		return binary.LittleEndian.Uint32(v)
	}
	return 0
}

func (d *Dec) U64() uint64 {
	if v := d.Raw(8); v != nil {
		return binary.LittleEndian.Uint64(v)
	}
	return 0
}

func (d *Dec) I64() int64   { return int64(d.U64()) }
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }
func (d *Dec) Bool() bool   { return d.U8() != 0 }

// Count reads an element count and fails unless that many elements of at
// least minBytes each can still follow, so the caller may allocate count
// elements. It returns 0 after a failure: loops over the result end at once.
func (d *Dec) Count(minBytes int) int {
	n := int(d.U32())
	if d.err != nil {
		return 0
	}
	if n < 0 || (minBytes > 0 && n > (len(d.b)-d.off)/minBytes) {
		d.Failf("count %d of >=%d-byte elements overruns the %d bytes left", n, minBytes, len(d.b)-d.off)
		return 0
	}
	return n
}

// Bytes reads a length-prefixed byte string into a fresh slice.
func (d *Dec) Bytes() []byte {
	v := d.Raw(d.Count(1))
	if d.err != nil {
		return nil
	}
	return append(make([]byte, 0, len(v)), v...)
}

// Str reads a length-prefixed string.
func (d *Dec) Str() string { return string(d.Raw(d.Count(1))) }

// Bits reads a packed bool vector into a slice with lead unset elements in
// front of it: the callers' states are indexed from 1, and some formats
// store the unused element 0 (lead 0) while others omit it (lead 1).
func (d *Dec) Bits(lead int) []bool {
	n := int(d.U32())
	if n < 0 {
		d.Failf("bit count %d", n)
	}
	packed := d.Raw(n/8 + (n%8+7)/8)
	if d.err != nil {
		return nil
	}
	out := make([]bool, lead+n)
	for i := 0; i < n; i++ {
		out[lead+i] = packed[i/8]&(1<<(i%8)) != 0
	}
	return out
}

// Floats reads a float64 vector, with lead zero elements in front (see Bits).
func (d *Dec) Floats(lead int) []float64 {
	n := d.Count(8)
	if d.err != nil {
		return nil
	}
	out := make([]float64, lead+n)
	for i := 0; i < n; i++ {
		out[lead+i] = d.F64()
	}
	return out
}
