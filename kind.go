package tuffy

// MAP and marginal inference are one pipeline — pin an epoch, decompose it
// into independent components, run a kernel per component, merge — and
// differ only in the kernel (WalkSAT, Section 3.3; MC-SAT, Appendix A.5),
// in what a component's outcome is (a state and a cost; a probability
// vector) and in how outcomes merge. Everything that differs lives in this
// file, as the two values of queryKind; the serving path (serve.go) and
// cache persistence (cachepersist.go) are each written once against the
// descriptor and never ask which kind they are handling.

import (
	"context"
	"fmt"
	"math"
	"time"

	"tuffy/internal/codec"
	"tuffy/internal/mln"
	"tuffy/internal/server"
)

// result is what the serving path needs of an answer, whatever its kind:
// the epoch it was computed on (cache key, batch publication), a private
// copy to hand out, and its cache.tfy entry (tag byte, then encode).
type result interface {
	tag() byte
	epoch() uint64
	clone() result
	encode(w *codec.Enc, predIdx map[*mln.Predicate]int32)
}

// queryKind is one kind of inference as the serving layer sees it.
type queryKind struct {
	// key canonicalizes the options that determine this kind's answer.
	// Parallelism is deliberately absent: results are bit-identical for
	// every worker count, so queries differing only in it share one entry.
	// Trackers are per-call observers and never part of the key.
	key func(o InferOptions) string
	// capBudget applies the server's cap on the budget this kind consumes
	// (flips over all tries for MAP, samples for marginal; neither kind is
	// ever rejected for the other's budget): an explicit over-ask is
	// refused, a defaulted budget is clamped in o.
	capBudget func(cfg ServerConfig, explicit InferOptions, o *InferOptions) *server.BudgetError
	// memBytes estimates one query's search memory on the served engine.
	memBytes func(s *Server, o InferOptions) int64

	// run answers the whole query on the engine.
	run func(ctx context.Context, e *Engine, o InferOptions) (result, error)

	// decode reads one cache.tfy entry body written by result.encode.
	decode func(d *codec.Dec, prog *mln.Program) result
}

// cache.tfy entry tags, indexing queryKinds.
const (
	cacheTagMAP      = 1
	cacheTagMarginal = 2
)

var queryKinds = [...]*queryKind{cacheTagMAP: mapKind, cacheTagMarginal: marginalKind}

// capBudget enforces one per-query cap (0 = none) on a budget that is
// spent times over: WalkSAT's flips per try, MaxTries times; MC-SAT's
// samples once. It compares by division, so a huge multiplier cannot
// overflow the product. An explicit over-ask is refused; a defaulted ask
// is clamped to limit / times, and refused when that is 0.
func capBudget(resource string, limit, ask, times int64, explicit bool) (int64, *server.BudgetError) {
	times = max(times, 1)
	each := limit / times
	switch {
	case limit <= 0 || ask <= each:
		return ask, nil
	case explicit || each == 0:
		total := int64(math.MaxInt64)
		if ask <= math.MaxInt64/times {
			total = ask * times
		}
		return ask, &server.BudgetError{Resource: resource, Requested: total, Limit: limit}
	}
	return each, nil
}

// ---- MAP ----

var mapKind = &queryKind{
	key: func(o InferOptions) string {
		return fmt.Sprintf("map|%d|%d|%d|%d|%d", o.Mode, o.Seed, o.MaxFlips, o.MaxTries, o.GaussSeidelRounds)
	},
	capBudget: func(cfg ServerConfig, explicit InferOptions, o *InferOptions) *server.BudgetError {
		flips, err := capBudget("flips", cfg.MaxFlipsPerQuery, o.MaxFlips, int64(o.MaxTries), explicit.MaxFlips != 0)
		o.MaxFlips = flips
		return err
	},
	memBytes: func(s *Server, o InferOptions) int64 {
		if o.Mode == InDatabase {
			return s.memInDB
		}
		return s.memInMemory
	},
	run: func(ctx context.Context, e *Engine, o InferOptions) (result, error) {
		r, err := e.InferMAP(ctx, o)
		if r == nil {
			return nil, err
		}
		return r, err
	},
	decode: func(d *codec.Dec, prog *mln.Program) result {
		r := &MAPResult{
			Epoch:          d.U64(),
			Cost:           d.F64(),
			Flips:          d.I64(),
			GroundTime:     time.Duration(d.I64()),
			SearchTime:     time.Duration(d.I64()),
			Partitions:     int(d.U32()),
			CutClauses:     int(d.U32()),
			InDBComponents: int(d.U32()),
		}
		r.TrueAtoms = make([]mln.GroundAtom, d.Count(4))
		for i := range r.TrueAtoms {
			r.TrueAtoms[i] = decodeAtom(d, prog)
		}
		r.State = d.Bits(0)
		return r
	},
}

func (r *MAPResult) tag() byte     { return cacheTagMAP }
func (r *MAPResult) epoch() uint64 { return r.Epoch }

// clone copies an answer so callers may mutate theirs without corrupting
// the cache. The copy is bit-identical; the per-atom descriptors stay
// shared (they are read-only engine state).
func (r *MAPResult) clone() result {
	cp := *r
	cp.TrueAtoms = append([]mln.GroundAtom(nil), r.TrueAtoms...)
	cp.State = append([]bool(nil), r.State...)
	return &cp
}

func (r *MAPResult) encode(w *codec.Enc, predIdx map[*mln.Predicate]int32) {
	w.U64(r.Epoch)
	w.F64(r.Cost)
	w.I64(r.Flips)
	w.I64(int64(r.GroundTime))
	w.I64(int64(r.SearchTime))
	w.U32(uint32(r.Partitions))
	w.U32(uint32(r.CutClauses))
	w.U32(uint32(r.InDBComponents))
	w.U32(uint32(len(r.TrueAtoms)))
	for _, a := range r.TrueAtoms {
		encodeAtom(w, predIdx, a)
	}
	w.Bits(r.State)
}

// ---- marginal ----

var marginalKind = &queryKind{
	key: func(o InferOptions) string { return fmt.Sprintf("marg|%d|%d|%d", o.Mode, o.Seed, o.Samples) },
	capBudget: func(cfg ServerConfig, explicit InferOptions, o *InferOptions) *server.BudgetError {
		samples, err := capBudget("samples", int64(cfg.MaxSamplesPerQuery), int64(o.Samples), 1, explicit.Samples != 0)
		o.Samples = int(samples)
		return err
	},
	memBytes: func(s *Server, _ InferOptions) int64 { return s.memInMemory },
	run: func(ctx context.Context, e *Engine, o InferOptions) (result, error) {
		r, err := e.InferMarginal(ctx, o)
		if r == nil {
			return nil, err
		}
		return r, err
	},
	decode: func(d *codec.Dec, prog *mln.Program) result {
		r := &MarginalResult{Epoch: d.U64()}
		r.Probs = make([]AtomProb, d.Count(12))
		for i := range r.Probs {
			r.Probs[i] = AtomProb{Atom: decodeAtom(d, prog), P: d.F64()}
		}
		return r
	},
}

func (r *MarginalResult) tag() byte     { return cacheTagMarginal }
func (r *MarginalResult) epoch() uint64 { return r.Epoch }

func (r *MarginalResult) clone() result {
	cp := *r
	cp.Probs = append([]AtomProb(nil), r.Probs...)
	return &cp
}

func (r *MarginalResult) encode(w *codec.Enc, predIdx map[*mln.Predicate]int32) {
	w.U64(r.Epoch)
	w.U32(uint32(len(r.Probs)))
	for _, p := range r.Probs {
		encodeAtom(w, predIdx, p.Atom)
		w.F64(p.P)
	}
}

// ---- ground atoms in cache.tfy ----

func encodeAtom(w *codec.Enc, predIdx map[*mln.Predicate]int32, a mln.GroundAtom) {
	w.U32(uint32(predIdx[a.Pred]))
	for _, arg := range a.Args {
		w.U32(uint32(arg))
	}
}

func decodeAtom(d *codec.Dec, prog *mln.Program) mln.GroundAtom {
	pi := int(d.U32())
	if pi < 0 || pi >= len(prog.Preds) {
		d.Failf("atom references predicate %d of %d", pi, len(prog.Preds))
		return mln.GroundAtom{}
	}
	return mln.GroundAtom{Pred: prog.Preds[pi], Args: readArgs(d, prog.Preds[pi])}
}
