package grounding

import (
	"context"
	"fmt"

	"tuffy/internal/mln"
)

// GroundTopDown is the Alchemy-style baseline: Prolog-like nested-loop
// enumeration of variable bindings, literal by literal in clause order, with
// the same evidence pruning as the bottom-up grounder. It performs no join
// reordering, builds no hash tables and uses no indexes — each literal scans
// its predicate's full atom list — matching the "fixed join algorithm"
// behaviour the paper's lesion study attributes to Alchemy (Table 6,
// Appendix C.2). It holds all predicate tables and intermediate bindings in
// memory, which is why its peak-memory account dwarfs the clause output
// (the paper's Table 4 observation). The context is polled between clauses;
// cancellation aborts with the context's cause.
func GroundTopDown(ctx context.Context, ts *TableSet, opts Options) (*Result, error) {
	// Materialize predicate tables in memory, as Alchemy does.
	type atomRow struct {
		aid   int64
		args  []int32
		truth int64
	}
	mem := make(map[*mln.Predicate][]atomRow)
	var atomBytes int64
	for _, pred := range ts.Prog.Preds {
		t := ts.Table(pred)
		if t == nil {
			continue
		}
		rows := make([]atomRow, 0, t.RowCount())
		it := t.NewScan()
		if err := it.Open(); err != nil {
			return nil, err
		}
		for {
			row, ok, err := it.Next()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			args := make([]int32, pred.Arity())
			for i := 0; i < pred.Arity(); i++ {
				args[i] = int32(row[1+i].I)
			}
			rows = append(rows, atomRow{aid: row[0].I, args: args, truth: row[pred.Arity()+1].I})
		}
		it.Close()
		mem[pred] = rows
		// In-memory object representation overhead (pointers, boxing) — the
		// 4x factor models Alchemy's per-atom object cost.
		atomBytes += int64(len(rows)) * int64(16+4*pred.Arity()) * 4
	}

	stats := Stats{PeakBytes: atomBytes}
	sets := make([]RawSet, len(ts.Prog.Clauses))

	for ci, clause := range ts.Prog.Clauses {
		if err := context.Cause(ctx); ctx.Err() != nil {
			return nil, err
		}
		raws := &sets[ci]
		raws.weight = clause.Weight
		if err := validateExistSafety(clause); err != nil {
			return nil, fmt.Errorf("grounding clause %d: %w", clause.ID, err)
		}
		exist := make(map[string]bool, len(clause.Exist))
		for _, v := range clause.Exist {
			exist[v] = true
		}
		var uLits, eLits, closedPos []mln.Literal
		var builtins []mln.Literal
		for _, l := range clause.Lits {
			switch {
			case l.IsBuiltinEq():
				builtins = append(builtins, l)
			case hasExistVar(l, exist):
				eLits = append(eLits, l)
			case !l.Negated && l.Pred.Closed:
				closedPos = append(closedPos, l)
			default:
				uLits = append(uLits, l)
			}
		}
		if len(uLits)+len(eLits) == 0 {
			return nil, fmt.Errorf("grounding clause %d: no groundable literals", clause.ID)
		}

		bind := make(map[string]int32)
		var rec func(depth int) error
		rec = func(depth int) error {
			if depth == len(uLits) {
				// Builtins: a statically-true builtin literal satisfies the
				// clause (prune); a false one is dropped.
				for _, b := range builtins {
					lv, lok := termVal(b.Args[0], bind)
					rv, rok := termVal(b.Args[1], bind)
					if !lok || !rok {
						return fmt.Errorf("equality variable unbound in clause %d", clause.ID)
					}
					if (lv == rv) != b.Negated {
						return nil // literal true => clause satisfied
					}
				}
				for _, cp := range closedPos {
					args, ok := litArgs(cp, bind)
					if !ok {
						return fmt.Errorf("closed positive literal %s has unbound variable", cp.Format(ts.Prog.Syms))
					}
					if ts.Ev.TruthOf(cp.Pred, args) == mln.True {
						return nil // satisfied by evidence
					}
				}
				// Universal literals, dropping evidence-decided ones, then the
				// existential witnesses, all appended to the open raw.
				for _, l := range uLits {
					args, _ := litArgs(l, bind)
					aid, ok := ts.AidOf(l.Pred, args)
					if !ok {
						// Closed-world negated literal over an atom with no
						// row: the atom is false, the negated literal true,
						// clause satisfied. (Unreached for rows enumerated
						// from tables; defensive.)
						raws.dropOpen()
						return nil
					}
					if ts.TruthOf(aid) == TruthUnknown {
						raws.lits = append(raws.lits, rawLit(aid, !l.Negated))
					}
				}
				satisfied := false
				for _, el := range eLits {
					for _, r := range mem[el.Pred] {
						stats.JoinRowsVisited++
						if !rowMatches(el, r.args, bind) {
							continue
						}
						switch r.truth {
						case TruthTrue:
							satisfied = true
						case TruthFalse:
						default:
							raws.lits = append(raws.lits, rawLit(r.aid, true))
						}
					}
					if satisfied {
						raws.dropOpen()
						return nil
					}
				}
				raws.endRaw()
				return nil
			}
			l := uLits[depth]
			for _, r := range mem[l.Pred] {
				stats.JoinRowsVisited++
				// Evidence pruning by truth.
				if l.Negated {
					if r.truth == TruthFalse {
						continue
					}
				} else if r.truth == TruthTrue {
					continue
				}
				if !rowMatches(l, r.args, bind) {
					continue
				}
				// Extend bindings, remembering which vars this row bound.
				var bound []string
				okRow := true
				for i, a := range l.Args {
					if !a.IsVar {
						continue
					}
					if _, exists := bind[a.Var]; !exists {
						bind[a.Var] = r.args[i]
						bound = append(bound, a.Var)
					}
				}
				if okRow {
					if err := rec(depth + 1); err != nil {
						return err
					}
				}
				for _, v := range bound {
					delete(bind, v)
				}
			}
			return nil
		}
		if err := rec(0); err != nil {
			return nil, err
		}
	}

	// No canonical order here: nothing retains these raws, and the fold's
	// output does not depend on theirs (canon.go) — the baseline is not
	// charged for the bottom-up grounder's snapshot determinism.
	if opts.UseClosure {
		sets = activeClosure(sets)
	}
	// Alchemy-style grounder also keeps the raw clause expansion in memory.
	var clauseBytes int64
	for _, s := range sets {
		clauseBytes += int64(48*s.n() + 16*len(s.lits))
	}
	if atomBytes+clauseBytes*3 > stats.PeakBytes {
		stats.PeakBytes = atomBytes + clauseBytes*3
	}
	return foldRaws(ts, sets, stats), nil
}

// EstimateTopDownPeak computes the peak-memory account GroundTopDown would
// report for an instance already grounded by any strategy, without paying
// for the nested-loop enumeration. Used by scalability experiments (the
// paper's ER+ claim) where actually running the top-down grounder at 2x
// scale is the very thing being shown infeasible.
func EstimateTopDownPeak(ts *TableSet, res *Result) int64 {
	var atomBytes int64
	for _, pred := range ts.Prog.Preds {
		t := ts.Table(pred)
		if t == nil {
			continue
		}
		atomBytes += t.RowCount() * int64(16+4*pred.Arity()) * 4
	}
	var clauseBytes int64
	for _, c := range res.MRF.Clauses {
		clauseBytes += int64(48 + 16*len(c.Lits))
	}
	peak := atomBytes + clauseBytes*3
	if atomBytes > peak {
		peak = atomBytes
	}
	return peak
}

func hasExistVar(l mln.Literal, exist map[string]bool) bool {
	for _, a := range l.Args {
		if a.IsVar && exist[a.Var] {
			return true
		}
	}
	return false
}

func termVal(t mln.Term, bind map[string]int32) (int32, bool) {
	if !t.IsVar {
		return t.Const, true
	}
	v, ok := bind[t.Var]
	return v, ok
}

// litArgs resolves a literal's argument tuple under the bindings.
func litArgs(l mln.Literal, bind map[string]int32) ([]int32, bool) {
	args := make([]int32, len(l.Args))
	for i, a := range l.Args {
		v, ok := termVal(a, bind)
		if !ok {
			return nil, false
		}
		args[i] = v
	}
	return args, true
}

// rowMatches checks a table row against a literal's constants and
// already-bound variables (unbound variables match anything).
func rowMatches(l mln.Literal, args []int32, bind map[string]int32) bool {
	seen := make(map[string]int32, 2)
	for i, a := range l.Args {
		if !a.IsVar {
			if args[i] != a.Const {
				return false
			}
			continue
		}
		if v, ok := bind[a.Var]; ok {
			if args[i] != v {
				return false
			}
			continue
		}
		// Repeated unbound variable within the literal must self-match.
		if v, ok := seen[a.Var]; ok {
			if args[i] != v {
				return false
			}
		} else {
			seen[a.Var] = args[i]
		}
	}
	return true
}
