package mln

import (
	"errors"
	"fmt"
	"slices"
)

// ErrConstantNotInDomain is returned (wrapped) by Evidence.Apply when a delta
// tuple mentions a constant that is not already a member of the domain of the
// corresponding argument type. Deltas may flip or retract truth values over
// the existing grounding universe, but growing a typed domain changes the set
// of candidate ground atoms for every open predicate sharing the type — that
// requires a full Ground, not an incremental update.
var ErrConstantNotInDomain = errors.New("mln: delta constant not in domain")

// DeltaOp is one evidence mutation: set the truth of a ground atom (True or
// False), or retract it entirely (Truth == Unknown). Retracting a tuple of a
// closed predicate makes the atom false under the closed-world assumption;
// retracting from an open predicate returns the atom to query status.
type DeltaOp struct {
	Pred  *Predicate
	Args  []int32
	Truth Truth
}

// Delta is an ordered batch of evidence mutations, the unit of work for
// Engine.UpdateEvidence. Ops apply in order; a later op on the same tuple
// wins.
type Delta struct {
	Ops []DeltaOp
}

// Upsert appends an op setting the truth of pred(args...).
func (d *Delta) Upsert(pred *Predicate, args []int32, t Truth) {
	d.Ops = append(d.Ops, DeltaOp{Pred: pred, Args: append([]int32(nil), args...), Truth: t})
}

// Remove appends an op retracting pred(args...) from the evidence.
func (d *Delta) Remove(pred *Predicate, args []int32) {
	d.Ops = append(d.Ops, DeltaOp{Pred: pred, Args: append([]int32(nil), args...), Truth: Unknown})
}

// Len returns the number of ops in the delta.
func (d *Delta) Len() int { return len(d.Ops) }

// Preds returns the set of predicates the delta touches.
func (d *Delta) Preds() map[*Predicate]bool {
	out := make(map[*Predicate]bool)
	for _, op := range d.Ops {
		out[op.Pred] = true
	}
	return out
}

// Get returns the truth recorded for pred(args...) in the evidence table
// itself, without the closed-world default (TruthOf applies it). ok is false
// when the tuple is absent.
func (e *Evidence) Get(pred *Predicate, args []int32) (Truth, bool) {
	r := e.rel(pred)
	if r == nil || len(args) != r.arity {
		return Unknown, false
	}
	if s := r.find(args); s >= 0 && r.truths[s] != removed {
		return r.truths[s], true
	}
	return Unknown, false
}

// Remove retracts pred(args...) from the evidence, reporting whether the
// tuple was present. Its slot stays as a tombstone that a later Upsert of
// the same tuple revives; ForEach orders by the arguments, never by slot,
// so the order of the survivors is unchanged.
func (e *Evidence) Remove(pred *Predicate, args []int32) bool {
	r := e.rel(pred)
	if r == nil || len(args) != r.arity {
		return false
	}
	s := r.find(args)
	if s < 0 || r.truths[s] == removed {
		return false
	}
	r.truths[s] = removed
	r.live--
	e.total--
	return true
}

// Upsert sets the truth of pred(args...) to t, creating the tuple if absent
// and retracting it when t is Unknown. Unlike Assert it does not grow the
// typed domains — callers mutating a live Engine must stay inside the
// existing grounding universe (see ErrConstantNotInDomain). args must have
// pred's arity. It returns the previous recorded truth (Unknown, false when
// the tuple was absent).
func (e *Evidence) Upsert(pred *Predicate, args []int32, t Truth) (prev Truth, existed bool) {
	if t == Unknown {
		prev, existed = e.Get(pred, args)
		e.Remove(pred, args)
		return prev, existed
	}
	if len(args) != pred.Arity() {
		panic(fmt.Sprintf("mln: upsert of %s with %d args, want %d", pred.Name, len(args), pred.Arity()))
	}
	prev, existed = e.relFor(pred).set(args, t)
	if !existed {
		e.total++
	}
	return prev, existed
}

// Apply validates and applies a delta, returning the inverse delta that
// restores the prior state when re-applied. Validation happens before any
// mutation: every op must match its predicate's arity and mention only
// constants already in the corresponding typed domains, otherwise the
// evidence is left untouched and the error wraps ErrConstantNotInDomain.
func (e *Evidence) Apply(d Delta) (inverse Delta, err error) {
	for _, op := range d.Ops {
		if op.Pred == nil {
			return Delta{}, fmt.Errorf("mln: delta op with nil predicate")
		}
		if len(op.Args) != op.Pred.Arity() {
			return Delta{}, fmt.Errorf("mln: delta op for %s has %d args, want %d",
				op.Pred.Name, len(op.Args), op.Pred.Arity())
		}
		for i, c := range op.Args {
			dom := e.prog.Domains[op.Pred.Args[i]]
			if dom == nil || !dom.Contains(c) {
				return Delta{}, fmt.Errorf("%w: %s arg %d (%s)",
					ErrConstantNotInDomain, op.Pred.Name, i, e.prog.Syms.Name(c))
			}
		}
	}
	for _, op := range d.Ops {
		prev, existed := e.Upsert(op.Pred, op.Args, op.Truth)
		if !existed {
			prev = Unknown
		}
		inverse.Ops = append(inverse.Ops, DeltaOp{Pred: op.Pred, Args: append([]int32(nil), op.Args...), Truth: prev})
	}
	// The inverse must undo ops in reverse order so that multiple ops on the
	// same tuple unwind correctly.
	for i, j := 0, len(inverse.Ops)-1; i < j; i, j = i+1, j-1 {
		inverse.Ops[i], inverse.Ops[j] = inverse.Ops[j], inverse.Ops[i]
	}
	return inverse, nil
}

// Clone returns a deep copy of the evidence tables (sharing the program).
// Used to build the "merged evidence" reference that incremental updates are
// checked against.
func (e *Evidence) Clone() *Evidence {
	out := &Evidence{prog: e.prog, rels: make([]*relation, len(e.rels)), total: e.total}
	for i, r := range e.rels {
		if r != nil {
			out.rels[i] = &relation{pred: r.pred, arity: r.arity, args: slices.Clone(r.args),
				truths: slices.Clone(r.truths), index: slices.Clone(r.index), live: r.live}
		}
	}
	return out
}
