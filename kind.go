package tuffy

// MAP and marginal inference are one pipeline — pin an epoch, decompose it
// into independent components, run a kernel per component, merge — and
// differ only in the kernel (WalkSAT, Section 3.3; MC-SAT, Appendix A.5),
// in what a component's outcome is (a state and a cost; a probability
// vector) and in how outcomes merge. Everything that differs lives in this
// file, as the two values of queryKind; the serving path (serve.go), the
// sharder on both sides of the wire (shard.go), cache persistence
// (cachepersist.go) are each written once against the descriptor and never
// ask which kind they are handling.

import (
	"context"
	"fmt"
	"time"

	"tuffy/internal/codec"
	"tuffy/internal/mln"
	"tuffy/internal/mrf"
	"tuffy/internal/search"
	"tuffy/internal/server"
	"tuffy/internal/wire"
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

// componentRun executes one component of a sharded query, with the search
// state of the group loop calling it.
type componentRun func(ctx context.Context, idx uint32, sc *search.Scratch) (wire.ShardComp, error)

// queryKind is one kind of inference as the serving tiers see it.
type queryKind struct {
	// key canonicalizes the options that determine this kind's answer.
	// Parallelism is deliberately absent: results are bit-identical for
	// every worker count, so queries differing only in it share one entry.
	// Trackers are per-call observers and never part of the key.
	key func(o InferOptions) string
	// capBudget applies the server's cap on the budget this kind consumes
	// (flips for MAP, samples for marginal; neither kind is ever rejected
	// for the other's budget): an explicit over-ask is refused, a defaulted
	// budget is clamped in o.
	capBudget func(cfg ServerConfig, explicit InferOptions, o *InferOptions) *server.BudgetError
	// memBytes estimates one query's search memory on a backend.
	memBytes func(b *backend, o InferOptions) int64

	// local runs the whole query on one engine.
	local func(ctx context.Context, e *Engine, o InferOptions) (result, error)
	// comps returns the canonical list of independent components an epoch
	// shards this kind over, ok=false when the epoch does not decompose
	// (local would not take its plain per-component path either).
	comps func(e *Engine, ep *epoch) (comps []*mrf.Component, ok bool)
	// request is the kind's part of a shard request: the canonical options.
	request func(o InferOptions) wire.ShardRequest
	// runner derives the per-component options from a shard request — one
	// derivation for the coordinator's local groups and the worker's
	// InferShard — and returns the kernel call.
	runner func(e *Engine, comps []*mrf.Component, req wire.ShardRequest) componentRun
	// merger starts one query's merge: apply folds in one component's
	// outcome (never concurrently), finish returns the answer. A component
	// that was never applied keeps its all-false / zero baseline, exactly
	// as in the local component loops under cancellation.
	merger func(e *Engine, ep *epoch, comps []*mrf.Component) (apply func(wire.ShardComp) error, finish func(searchTime time.Duration) result)

	// decode reads one cache.tfy entry body written by result.encode.
	decode func(d *codec.Dec, prog *mln.Program) result
}

// cache.tfy entry tags, indexing queryKinds.
const (
	cacheTagMAP      = 1
	cacheTagMarginal = 2
)

var queryKinds = [...]*queryKind{cacheTagMAP: mapKind, cacheTagMarginal: marginalKind}

// shardKind maps the wire's kind flag to its descriptor.
func shardKind(marginal bool) *queryKind {
	if marginal {
		return marginalKind
	}
	return mapKind
}

// capBudget enforces one per-query cap (0 = none) on a defaulted ask.
func capBudget(resource string, limit, ask int64, explicit bool) (int64, *server.BudgetError) {
	switch {
	case limit <= 0 || ask <= limit:
		return ask, nil
	case explicit:
		return ask, &server.BudgetError{Resource: resource, Requested: ask, Limit: limit}
	}
	return limit, nil
}

// ---- MAP ----

var mapKind = &queryKind{
	key: func(o InferOptions) string {
		return fmt.Sprintf("map|%d|%d|%d|%d|%d", o.Mode, o.Seed, o.MaxFlips, o.MaxTries, o.GaussSeidelRounds)
	},
	capBudget: func(cfg ServerConfig, explicit InferOptions, o *InferOptions) *server.BudgetError {
		flips, err := capBudget("flips", cfg.MaxFlipsPerQuery, o.MaxFlips, explicit.MaxFlips != 0)
		o.MaxFlips = flips
		return err
	},
	memBytes: func(b *backend, o InferOptions) int64 {
		if o.Mode == InDatabase {
			return b.memInDB
		}
		return b.memInMemory
	},
	local: func(ctx context.Context, e *Engine, o InferOptions) (result, error) {
		r, err := e.InferMAP(ctx, o)
		if r == nil {
			return nil, err
		}
		return r, err
	},
	// The partition parts are the components — when nothing is cut and
	// nothing is oversized, the precondition under which InferMAP's Auto
	// path is plain component-aware search.
	comps: func(e *Engine, ep *epoch) ([]*mrf.Component, bool) {
		pt := ep.partitioning(e.partitionBeta())
		inMem, oversized := e.splitParts(pt)
		return inMem, pt.NumCut() == 0 && len(oversized) == 0
	},
	request: func(o InferOptions) wire.ShardRequest {
		return wire.ShardRequest{Seed: o.Seed, MaxFlips: o.MaxFlips, MaxTries: uint32(o.MaxTries)}
	},
	runner: func(e *Engine, comps []*mrf.Component, req wire.ShardRequest) componentRun {
		base := search.DefaultedOptions(search.Options{MaxFlips: req.MaxFlips, MaxTries: int(req.MaxTries), Seed: req.Seed})
		var totalAtoms int64
		for _, c := range comps {
			totalAtoms += int64(c.MRF.NumAtoms)
		}
		return func(ctx context.Context, idx uint32, sc *search.Scratch) (wire.ShardComp, error) {
			r := search.RunComponent(ctx, comps[idx], int(idx), totalAtoms, base, e.memo, sc)
			if r.Best == nil {
				return wire.ShardComp{}, search.Canceled(ctx)
			}
			return wire.ShardComp{Index: idx, Cost: r.BestCost, Flips: r.Flips, State: r.Best}, nil
		}
	},
	merger: func(e *Engine, ep *epoch, comps []*mrf.Component) (func(wire.ShardComp) error, func(time.Duration) result) {
		m := ep.res.MRF
		res := &MAPResult{GroundTime: e.GroundTime(), Epoch: ep.gen, Partitions: len(comps), State: m.NewState()}
		perComp := make([]float64, len(comps))
		for i, c := range comps {
			perComp[i] = c.MRF.AllFalseCost()
		}
		apply := func(c wire.ShardComp) error {
			comp := comps[c.Index]
			if len(c.State) != comp.Size()+1 {
				return fmt.Errorf("tuffy: shard state for component %d has %d atoms, want %d", c.Index, len(c.State)-1, comp.Size())
			}
			perComp[c.Index] = c.Cost
			res.Flips += c.Flips
			comp.ProjectState(c.State, res.State)
			return nil
		}
		return apply, func(searchTime time.Duration) result {
			res.Cost = m.FixedCost
			for _, c := range perComp {
				res.Cost += c
			}
			res.SearchTime = searchTime
			res.TrueAtoms = trueAtoms(m, res.State)
			return res
		}
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
		samples, err := capBudget("samples", int64(cfg.MaxSamplesPerQuery), int64(o.Samples), explicit.Samples != 0)
		o.Samples = int(samples)
		return err
	},
	memBytes: func(b *backend, _ InferOptions) int64 { return b.memInMemory },
	local: func(ctx context.Context, e *Engine, o InferOptions) (result, error) {
		r, err := e.InferMarginal(ctx, o)
		if r == nil {
			return nil, err
		}
		return r, err
	},
	// The connected components the distribution factorizes over — unless a
	// memory budget cut them, which is the Gauss-Seidel MC-SAT path.
	comps: func(e *Engine, ep *epoch) ([]*mrf.Component, bool) {
		if beta := e.partitionBeta(); beta > 0 && ep.partitioning(beta).NumCut() > 0 {
			return nil, false
		}
		return ep.components(), true
	},
	request: func(o InferOptions) wire.ShardRequest {
		return wire.ShardRequest{Marginal: true, Seed: o.Seed, Samples: uint32(o.Samples)}
	},
	runner: func(_ *Engine, comps []*mrf.Component, req wire.ShardRequest) componentRun {
		mo := mcsatOptions(int(req.Samples), req.Seed)
		return func(ctx context.Context, idx uint32, sc *search.Scratch) (wire.ShardComp, error) {
			probs, err := search.RunComponentMCSAT(ctx, comps[idx], int(idx), mo, sc)
			return wire.ShardComp{Index: idx, Probs: probs}, err
		}
	},
	merger: func(_ *Engine, ep *epoch, comps []*mrf.Component) (func(wire.ShardComp) error, func(time.Duration) result) {
		m := ep.res.MRF
		probs := make([]float64, m.NumAtoms+1)
		apply := func(c wire.ShardComp) error {
			comp := comps[c.Index]
			if len(c.Probs) != comp.Size()+1 {
				return fmt.Errorf("tuffy: shard marginals for component %d have %d atoms, want %d", c.Index, len(c.Probs)-1, comp.Size())
			}
			for i := 1; i <= comp.MRF.NumAtoms; i++ {
				probs[comp.GlobalAtom[i]] = c.Probs[i]
			}
			return nil
		}
		return apply, func(time.Duration) result { return newMarginalResult(m, probs, ep.gen) }
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
