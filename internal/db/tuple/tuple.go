// Package tuple defines the typed rows stored by the relational engine:
// schemas, values (64-bit integers and integer lists), byte-level encoding
// for page storage, and the byte-key encoding used by hash indexes and
// distinct-value statistics.
package tuple

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// Type enumerates column types: every column the engine's one client
// creates is a BIGINT or an integer list (a clause's literals).
type Type int8

const (
	TInt Type = iota
	TIntList
)

func (t Type) String() string {
	switch t {
	case TInt:
		return "BIGINT"
	case TIntList:
		return "BIGINT[]"
	default:
		return fmt.Sprintf("TYPE(%d)", int(t))
	}
}

// Column is one attribute of a schema.
type Column struct {
	Name string
	Type Type
}

// Schema is an ordered list of columns.
type Schema struct {
	Cols []Column
}

// NewSchema builds a schema from name/type pairs.
func NewSchema(cols ...Column) Schema { return Schema{Cols: cols} }

// Col is shorthand for constructing a Column.
func Col(name string, t Type) Column { return Column{Name: name, Type: t} }

// Arity returns the number of columns.
func (s Schema) Arity() int { return len(s.Cols) }

// ColIndex returns the index of the named column, or -1.
func (s Schema) ColIndex(name string) int {
	for i, c := range s.Cols {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Concat returns the schema of a join result: the columns of s followed by
// the columns of o.
func (s Schema) Concat(o Schema) Schema {
	cols := make([]Column, 0, len(s.Cols)+len(o.Cols))
	cols = append(cols, s.Cols...)
	cols = append(cols, o.Cols...)
	return Schema{Cols: cols}
}

func (s Schema) String() string {
	parts := make([]string, len(s.Cols))
	for i, c := range s.Cols {
		parts[i] = c.Name + " " + c.Type.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Value is a single typed datum.
type Value struct {
	Kind Type
	I    int64
	List []int64
}

// I64 makes an integer value.
func I64(v int64) Value { return Value{Kind: TInt, I: v} }

// IntList makes an integer-list value.
func IntList(v []int64) Value { return Value{Kind: TIntList, List: v} }

// Equal reports deep equality of two values.
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case TInt:
		return v.I == o.I
	case TIntList:
		if len(v.List) != len(o.List) {
			return false
		}
		for i := range v.List {
			if v.List[i] != o.List[i] {
				return false
			}
		}
		return true
	}
	return false
}

// Compare orders two values of the same kind: -1, 0, +1.
func (v Value) Compare(o Value) int {
	switch v.Kind {
	case TInt:
		switch {
		case v.I < o.I:
			return -1
		case v.I > o.I:
			return 1
		}
		return 0
	case TIntList:
		n := len(v.List)
		if len(o.List) < n {
			n = len(o.List)
		}
		for i := 0; i < n; i++ {
			if v.List[i] != o.List[i] {
				if v.List[i] < o.List[i] {
					return -1
				}
				return 1
			}
		}
		switch {
		case len(v.List) < len(o.List):
			return -1
		case len(v.List) > len(o.List):
			return 1
		}
		return 0
	}
	return 0
}

func (v Value) String() string {
	switch v.Kind {
	case TInt:
		return fmt.Sprintf("%d", v.I)
	case TIntList:
		parts := make([]string, len(v.List))
		for i, x := range v.List {
			parts[i] = fmt.Sprintf("%d", x)
		}
		return "{" + strings.Join(parts, ",") + "}"
	}
	return "?"
}

// Row is one tuple.
type Row []Value

// Clone returns a deep copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	for i := range out {
		if out[i].Kind == TIntList {
			l := make([]int64, len(out[i].List))
			copy(l, out[i].List)
			out[i].List = l
		}
	}
	return out
}

// Encode serializes the row (which must match sch) into a byte slice
// suitable for page storage.
func Encode(sch Schema, r Row) ([]byte, error) {
	if len(r) != sch.Arity() {
		return nil, fmt.Errorf("tuple: row arity %d != schema arity %d", len(r), sch.Arity())
	}
	size := 0
	for i, c := range sch.Cols {
		if r[i].Kind != c.Type {
			return nil, fmt.Errorf("tuple: column %s kind mismatch: row %v, schema %v", c.Name, r[i].Kind, c.Type)
		}
		switch c.Type {
		case TInt:
			size += 8
		case TIntList:
			size += 4 + 8*len(r[i].List)
		}
	}
	buf := make([]byte, size)
	off := 0
	for i, c := range sch.Cols {
		switch c.Type {
		case TInt:
			binary.LittleEndian.PutUint64(buf[off:], uint64(r[i].I))
			off += 8
		case TIntList:
			binary.LittleEndian.PutUint32(buf[off:], uint32(len(r[i].List)))
			off += 4
			for _, x := range r[i].List {
				binary.LittleEndian.PutUint64(buf[off:], uint64(x))
				off += 8
			}
		}
	}
	return buf, nil
}

// Decode deserializes a row previously produced by Encode.
func Decode(sch Schema, buf []byte) (Row, error) {
	r := make(Row, sch.Arity())
	if err := DecodeInto(sch, buf, r); err != nil {
		return nil, err
	}
	return r, nil
}

// DecodeInto deserializes a row previously produced by Encode into dst,
// which must have the schema's arity. A list column is decoded into the
// List dst already holds at that position when its capacity suffices, so a
// caller that decodes into the same rows again allocates only when a list
// outgrows its predecessor; the decoded lists never alias buf.
func DecodeInto(sch Schema, buf []byte, dst Row) error {
	if len(dst) != sch.Arity() {
		return fmt.Errorf("tuple: decoding into a row of arity %d, schema arity %d", len(dst), sch.Arity())
	}
	off := 0
	for i, c := range sch.Cols {
		switch c.Type {
		case TInt:
			if off+8 > len(buf) {
				return fmt.Errorf("tuple: truncated int at col %d", i)
			}
			dst[i] = I64(int64(binary.LittleEndian.Uint64(buf[off:])))
			off += 8
		case TIntList:
			if off+4 > len(buf) {
				return fmt.Errorf("tuple: truncated list len at col %d", i)
			}
			n := int(binary.LittleEndian.Uint32(buf[off:]))
			off += 4
			if off+8*n > len(buf) {
				return fmt.Errorf("tuple: truncated list at col %d", i)
			}
			list := dst[i].List
			if list == nil || cap(list) < n {
				list = make([]int64, n)
			}
			list = list[:n]
			for j := range list {
				list[j] = int64(binary.LittleEndian.Uint64(buf[off:]))
				off += 8
			}
			dst[i] = IntList(list)
		}
	}
	if off != len(buf) {
		return fmt.Errorf("tuple: %d trailing bytes", len(buf)-off)
	}
	return nil
}

// EncodeKey builds an order-preserving byte key from a subset of row columns,
// for use in indexes and hash tables. Integer keys sort correctly as bytes
// (big-endian with flipped sign bit).
func EncodeKey(r Row, cols []int) string {
	var b strings.Builder
	for _, ci := range cols {
		v := r[ci]
		switch v.Kind {
		case TInt:
			var tmp [8]byte
			binary.BigEndian.PutUint64(tmp[:], uint64(v.I)^(1<<63))
			b.Write(tmp[:])
		case TIntList:
			for _, x := range v.List {
				var tmp [8]byte
				binary.BigEndian.PutUint64(tmp[:], uint64(x)^(1<<63))
				b.Write(tmp[:])
			}
		}
	}
	return b.String()
}
