package tuffy

// MAP and marginal inference are one pipeline — pin an epoch, decompose it
// into independent components, run a kernel per component, merge — and
// differ only in the kernel (WalkSAT, Section 3.3; MC-SAT, Appendix A.5),
// in what a component's outcome is (a state and a cost; a probability
// vector) and in how outcomes merge. Everything that differs lives in this
// file, as the two values of queryKind; the serving path (serve.go) is
// written once against the descriptor and never asks which kind it is
// handling.

import (
	"context"
	"fmt"
	"math"

	"tuffy/internal/mln"
	"tuffy/internal/server"
)

// result is what the serving path needs of an answer, whatever its kind:
// the epoch it was computed on (its cache key) and a private copy to hand
// out.
type result interface {
	epoch() uint64
	clone() result
}

// queryKind is one kind of inference as the serving layer sees it.
type queryKind struct {
	// key canonicalizes the options that determine this kind's answer.
	// Parallelism is deliberately absent: results are bit-identical for
	// every worker count, so queries differing only in it share one entry.
	// Trackers are per-call observers and never part of the key.
	key func(o InferOptions) string
	// capBudget applies the server's cap on the budget this kind consumes
	// (flips over all tries, or all Gauss-Seidel rounds and parts, for
	// MAP; samples for marginal; neither kind is ever rejected for the
	// other's budget): an explicit over-ask is refused, a defaulted budget
	// is clamped in o.
	capBudget func(s *Server, explicit InferOptions, o *InferOptions) *server.BudgetError
	// memBytes estimates one query's search memory on the served engine.
	memBytes func(s *Server, o InferOptions) int64

	// run answers the whole query on the engine.
	run func(ctx context.Context, e *Engine, o InferOptions) (result, error)
}

// capBudget enforces one per-query cap (0 = none) on a budget that is
// spent times over: WalkSAT's flips per try, MaxTries times (or once per
// part per round under Gauss-Seidel); MC-SAT's samples once. It compares
// by division, so a huge multiplier cannot overflow the product. An
// explicit over-ask is refused; a defaulted ask is clamped to
// limit / times, and refused when that is 0.
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
	capBudget: func(s *Server, explicit InferOptions, o *InferOptions) *server.BudgetError {
		limit := s.cfg.MaxFlipsPerQuery
		times := int64(o.MaxTries)
		if limit > 0 && o.Mode == Auto {
			// Gauss-Seidel runs one try per part per round, each spending
			// the whole MaxFlips.
			if parts := s.eng.cutParts(); parts > 0 {
				times = int64(math.MaxInt64)
				if rounds := int64(o.GaussSeidelRounds); rounds <= math.MaxInt64/parts {
					times = rounds * parts
				}
			}
		}
		flips, err := capBudget("flips", limit, o.MaxFlips, times, explicit.MaxFlips != 0)
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
}

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

// ---- marginal ----

var marginalKind = &queryKind{
	key: func(o InferOptions) string { return fmt.Sprintf("marg|%d|%d|%d", o.Mode, o.Seed, o.Samples) },
	capBudget: func(s *Server, explicit InferOptions, o *InferOptions) *server.BudgetError {
		samples, err := capBudget("samples", int64(s.cfg.MaxSamplesPerQuery), int64(o.Samples), 1, explicit.Samples != 0)
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
}

func (r *MarginalResult) epoch() uint64 { return r.Epoch }

func (r *MarginalResult) clone() result {
	cp := *r
	cp.Probs = append([]AtomProb(nil), r.Probs...)
	return &cp
}
