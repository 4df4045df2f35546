package mln

import "tuffy/internal/codec"

// EncodeDelta frames one evidence delta as a compact positional record:
// predicates by program index, constants as interned ids, three-valued
// truth — the format the durability WAL logs and the distributed tier
// fans out to workers. It is valid only between readers that share the
// exact program (the fingerprint handshake of both layers enforces that).
// predIdx maps each predicate to its index in the program's Preds slice.
func EncodeDelta(predIdx map[*Predicate]int32, d Delta) []byte {
	var e codec.Enc
	e.U32(uint32(len(d.Ops)))
	for _, op := range d.Ops {
		e.U32(uint32(predIdx[op.Pred]))
		e.U8(byte(op.Truth))
		for _, a := range op.Args {
			e.U32(uint32(a))
		}
	}
	return e.Buf()
}

// PredIndex builds the predicate-to-index map EncodeDelta keys on.
func PredIndex(prog *Program) map[*Predicate]int32 {
	idx := make(map[*Predicate]int32, len(prog.Preds))
	for i, p := range prog.Preds {
		idx[p] = int32(i)
	}
	return idx
}

// DecodeDelta is EncodeDelta's inverse against the serving program. The
// record comes off a disk or a socket: a predicate index outside the
// program, a truth byte that is none of Unknown/True/False, a truncated
// or over-long record all fail with an error matching codec.ErrMalformed.
func DecodeDelta(prog *Program, payload []byte) (Delta, error) {
	var delta Delta
	d := codec.NewDec(payload)
	// An op is at least a predicate index and a truth byte.
	for i, n := 0, d.Count(5); i < n && d.Err() == nil; i++ {
		pi, truth := int(d.U32()), d.U8()
		if pi < 0 || pi >= len(prog.Preds) {
			d.Failf("delta op %d references predicate %d of %d", i, pi, len(prog.Preds))
			break
		}
		if truth > byte(False) {
			d.Failf("delta op %d has truth value %d", i, truth)
		}
		op := DeltaOp{Pred: prog.Preds[pi], Args: make([]int32, prog.Preds[pi].Arity()), Truth: Truth(truth)}
		for j := range op.Args {
			op.Args[j] = int32(d.U32())
		}
		delta.Ops = append(delta.Ops, op)
	}
	return delta, d.Finish()
}
