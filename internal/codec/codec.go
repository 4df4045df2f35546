// Package codec is the one binary encoding every persisted structure of the
// module is written in: the engine snapshot (persist.go, with the raw
// groundings of internal/grounding) and the WAL's evidence-delta records
// (internal/mln). Values are flat little-endian field sequences — no
// reflection, no self-description — so a format is exactly the order of the
// calls that write it, and the golden files under the callers' testdata pin
// those orders byte for byte.
//
// Enc appends; Dec reads straight through and latches its first failure, so
// a decoder checks one error at the end instead of one per field. Every
// element count read from the input is validated against the bytes that
// remain BEFORE anything is allocated (Count): hostile input can make a
// decoder fail, never make it allocate more than a small multiple of the
// input's size.
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
func (e *Enc) U32(v uint32)  { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *Enc) U64(v uint64)  { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

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

func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

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
