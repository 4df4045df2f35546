package grounding

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"tuffy/internal/db/plan"
	"tuffy/internal/mln"
)

// Options controls grounding for both strategies.
type Options struct {
	// UseClosure applies the lazy-inference active closure of Appendix A.3
	// after evidence pruning, as Tuffy and Alchemy both do. Atoms outside
	// the closure are pinned false and their clauses dropped.
	UseClosure bool
	// Workers is the number of concurrent grounding workers for the
	// bottom-up strategy; values below 2 ground sequentially. The grounding
	// result is identical for every worker count: task outputs are merged
	// in clause-ID-then-range order before MRF atom renumbering. A clause
	// whose estimated cost exceeds a fair share of the total is partitioned
	// into Workers hash ranges of a join variable and the ranges ground
	// concurrently.
	Workers int
}

// rawClause is a ground clause before MRF atom renumbering: parallel slices
// of table aids and literal signs.
type rawClause struct {
	weight float64
	aids   []int64
	pos    []bool
}

// RawSet is one first-order clause's canonical raw groundings in the flat,
// pointer-free form the incremental grounder retains between updates (and
// the snapshot stores): raw j's literals are lits[off[j]:off[j+1]], each
// encoded aid<<1|positive. All raws of one clause carry the clause's weight.
// Two allocations per clause instead of two per raw, and nothing in them for
// the garbage collector to scan.
type RawSet struct {
	weight float64
	off    []uint32
	lits   []uint64
}

func (s RawSet) n() int { return max(len(s.off)-1, 0) }

func (s RawSet) raw(j int) []uint64 { return s.lits[s.off[j]:s.off[j+1]] }

// appendRaw adds one raw grounding (diff sets are built this way; cached
// sets are sized exactly by flattenRaws).
func (s *RawSet) appendRaw(lits []uint64) {
	if len(s.off) == 0 {
		s.off = append(s.off, 0)
	}
	s.lits = append(s.lits, lits...)
	s.off = append(s.off, uint32(len(s.lits)))
}

// flattenRaws packs one clause's canonical raw groundings into a RawSet,
// preserving their order.
func flattenRaws(raws []rawClause) RawSet {
	if len(raws) == 0 {
		return RawSet{}
	}
	total := 0
	for i := range raws {
		total += len(raws[i].aids)
	}
	s := RawSet{weight: raws[0].weight, off: make([]uint32, len(raws)+1), lits: make([]uint64, 0, total)}
	for i, r := range raws {
		for k, aid := range r.aids {
			v := uint64(aid) << 1
			if r.pos[k] {
				v |= 1
			}
			s.lits = append(s.lits, v)
		}
		s.off[i+1] = uint32(len(s.lits))
	}
	return s
}

// expandRaws is flattenRaws' inverse, for the one consumer that still folds
// whole raw lists: assembleResult under the active closure, which has no
// incremental form.
func expandRaws(sets []RawSet) [][]rawClause {
	out := make([][]rawClause, len(sets))
	for i, s := range sets {
		aids := make([]int64, len(s.lits))
		pos := make([]bool, len(s.lits))
		for k, v := range s.lits {
			aids[k], pos[k] = int64(v>>1), v&1 == 1
		}
		raws := make([]rawClause, s.n())
		for j := range raws {
			lo, hi := s.off[j], s.off[j+1]
			raws[j] = rawClause{weight: s.weight, aids: aids[lo:hi:hi], pos: pos[lo:hi:hi]}
		}
		out[i] = raws
	}
	return out
}

// GroundBottomUp grounds the program by compiling one SQL query per clause
// and executing it on the RDBMS (the paper's Section 3.1). The join order
// and algorithms are chosen by the engine's optimizer, subject to the
// engine's plan.Options (which the Table 6 lesion study manipulates).
//
// With Options.Workers > 1 the per-clause grounding queries compile and
// execute concurrently on a worker pool; each worker accumulates its
// clauses' raw groundings privately and the results are merged in clause-ID
// order, so the MRF is bit-identical to the sequential path regardless of
// worker count or scheduling.
//
// Cancellation: workers poll the context before each clause; a canceled
// context aborts the grounding with the context's cause (there is no
// partial grounding result).
func GroundBottomUp(ctx context.Context, ts *TableSet, opts Options) (*Result, error) {
	clauses := ts.Prog.Clauses
	perClause := make([][]rawClause, len(clauses))
	perStats := make([]Stats, len(clauses))
	if err := groundSelectedSQL(ctx, ts, opts, perClause, perStats, nil); err != nil {
		return nil, err
	}
	return assembleResult(ts, perClause, perStats, opts), nil
}

// groundSelectedSQL compiles and executes the grounding query of every
// selected clause (sel[i] reports whether clause i runs; nil selects all),
// writing raw groundings and stats into perClause/perStats by clause ID.
// Unselected slots are left untouched, which is how the incremental grounder
// reuses cached raws.
//
// With more than one worker the scheduler runs clause×range tasks: each
// clause whose estimated query cost exceeds a fair share of the total is
// partitioned into Workers hash ranges of a join variable (see planSplits),
// so a single dominant clause no longer serializes the phase. Task
// scheduling never changes the output: each (clause, range) slot is written
// by exactly one goroutine, each task canonicalizes its own output, and the
// per-clause results are stably key-merged in range order (mergeCanon) —
// making the result bit-identical to the sequential path for every worker
// count and split decision.
func groundSelectedSQL(ctx context.Context, ts *TableSet, opts Options, perClause [][]rawClause, perStats []Stats, sel []bool) error {
	clauses := ts.Prog.Clauses
	run := make([]int, 0, len(clauses))
	for i := range clauses {
		if sel == nil || sel[i] {
			run = append(run, i)
		}
	}

	workers := opts.Workers
	if workers <= 1 || len(run) == 0 {
		perErr := make([]error, len(clauses))
		for _, i := range run {
			if err := context.Cause(ctx); ctx.Err() != nil {
				return err
			}
			perClause[i], perErr[i] = groundClauseSQL(ts, clauses[i], &perStats[i])
			if perErr[i] != nil {
				return fmt.Errorf("grounding clause %d (%s): %w", clauses[i].ID, clauses[i].Source, perErr[i])
			}
		}
		return nil
	}

	// Compile every selected clause once, up front: the scheduler costs the
	// compiled queries to pick splits, and range tasks share a compilation.
	comps := make([]*Compiled, len(clauses))
	for _, i := range run {
		comp, err := CompileClauseSQL(ts, clauses[i])
		if err != nil {
			return fmt.Errorf("grounding clause %d (%s): %w", clauses[i].ID, clauses[i].Source, err)
		}
		comps[i] = comp
	}
	splits := planSplits(ts, comps, run, workers)

	type task struct{ clause, rng int } // rng < 0: whole clause
	var tasks []task
	partRaws := make([][][]rawClause, len(clauses))
	partKeys := make([][][]string, len(clauses))
	partErr := make([][]error, len(clauses))
	partStats := make([][]Stats, len(clauses))
	for _, i := range run {
		w := 1
		if splits[i] > 1 {
			w = splits[i]
			for r := 0; r < w; r++ {
				tasks = append(tasks, task{i, r})
			}
		} else {
			tasks = append(tasks, task{i, -1})
		}
		partRaws[i] = make([][]rawClause, w)
		partKeys[i] = make([][]string, w)
		partErr[i] = make([]error, w)
		partStats[i] = make([]Stats, w)
	}

	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := int(next.Add(1)) - 1
				if n >= len(tasks) || failed.Load() || ctx.Err() != nil {
					return
				}
				t := tasks[n]
				i, slot := t.clause, t.rng
				var rng *clauseRange
				if slot < 0 {
					slot = 0
				} else {
					rng = &clauseRange{
						v:   comps[i].SplitVars[0],
						mod: uint32(splits[i]),
						rem: uint32(t.rng),
					}
				}
				raws, err := groundCompiled(ts, clauses[i], comps[i], rng, &partStats[i][slot])
				if err != nil {
					partErr[i][slot] = err
					failed.Store(true) // fail fast, like the sequential path
					continue
				}
				// Canonicalize inside the task: key building dominates the
				// cost of large clauses, and per-range canon parallelizes it.
				partRaws[i][slot], partKeys[i][slot] = canonRawsKeys(ts, raws)
			}
		}()
	}
	wg.Wait()
	if err := context.Cause(ctx); ctx.Err() != nil {
		return err
	}
	// Report the first error in clause-then-range order so failures are
	// deterministic across worker counts and schedules.
	for _, i := range run {
		for _, err := range partErr[i] {
			if err != nil {
				return fmt.Errorf("grounding clause %d (%s): %w", clauses[i].ID, clauses[i].Source, err)
			}
		}
	}
	// Stably merge each clause's canonical range outputs by key (ties to the
	// earlier range): the result is exactly canonRaws of the unsplit query's
	// multiset, so everything downstream is bit-identical to it.
	for _, i := range run {
		if len(partRaws[i]) == 1 {
			perClause[i] = partRaws[i][0]
		} else {
			perClause[i] = mergeCanon(partRaws[i], partKeys[i])
		}
		perStats[i] = Stats{}
		for _, st := range partStats[i] {
			perStats[i].JoinRowsVisited += st.JoinRowsVisited
			if st.PeakBytes > perStats[i].PeakBytes {
				perStats[i].PeakBytes = st.PeakBytes
			}
		}
	}
	return nil
}

// planSplits decides how many hash ranges each clause's grounding query
// fans out into. Costs come from the optimizer's own estimates
// (EstRows+EstBlocks of the chosen plan); a clause splits into `workers`
// ranges exactly when (a) its cost is at least twice everything else
// combined — the single dominant clause (e.g. ER's cubic transitivity
// rule) whose tail no whole-clause schedule can hide behind other work:
// at a 2/3 share the best whole-clause speedup is already capped at 1.5x
// no matter how many workers run — (b) it has a universal join variable
// to partition by, and (c) its estimated join
// output dwarfs the page reads the split duplicates: every range task
// re-scans the same base-table pages and filters, so k ranges cost
// ~k·EstBlocks extra I/O against an EstRows·(k-1)/k division of row work,
// which pays exactly when EstRows > k·EstBlocks. Clauses below the
// dominance margin stay whole: the scheduler already overlaps them with
// the rest of the clause list, and splitting them only multiplies
// physical reads.
func planSplits(ts *TableSet, comps []*Compiled, run []int, workers int) map[int]int {
	splits := make(map[int]int)
	costs := make(map[int]float64, len(run))
	rows := make(map[int]float64, len(run))
	blocks := make(map[int]float64, len(run))
	total := 0.0
	for _, i := range run {
		if comps[i].Skip {
			continue
		}
		est, err := ts.DB.EstimateQuery(comps[i].SQL)
		if err != nil {
			continue // cost unknown: never split, always correct
		}
		rows[i] = float64(est.EstRows)
		blocks[i] = float64(est.EstBlocks)
		costs[i] = rows[i] + blocks[i]
		total += costs[i]
	}
	if total <= 0 {
		return splits
	}
	for _, i := range run {
		if len(comps[i].SplitVars) > 0 && costs[i] > 2*(total-costs[i]) &&
			rows[i] > float64(workers)*blocks[i] {
			splits[i] = workers
		}
	}
	return splits
}

// assembleResult merges per-clause raw groundings in clause-ID order, applies
// the optional active closure, and folds everything through the clause
// accumulator. Each per-clause slice is dropped as it is merged so the merge
// does not hold two copies of the ground clauses; the incremental grounder
// keeps its own flat copy (flattenRaws).
func assembleResult(ts *TableSet, perClause [][]rawClause, perStats []Stats, opts Options) *Result {
	total := 0
	for i := range perClause {
		total += len(perClause[i])
	}
	raws := make([]rawClause, 0, total)
	stats := Stats{}
	for i := range perClause {
		raws = append(raws, perClause[i]...)
		perClause[i] = nil
		stats.JoinRowsVisited += perStats[i].JoinRowsVisited
		if perStats[i].PeakBytes > stats.PeakBytes {
			stats.PeakBytes = perStats[i].PeakBytes
		}
	}
	if opts.UseClosure {
		raws = activeClosure(raws)
	}
	ca := newClauseAccumulator(ts)
	for _, r := range raws {
		ca.add(r.weight, r.aids, r.pos)
	}
	return ca.finish(stats)
}

// ColRef names one alias.column of a compiled grounding query.
type ColRef struct {
	Alias, Col string
}

// Compiled describes the SQL compilation of one first-order clause.
type Compiled struct {
	SQL string
	// ULits[i] is the universal clause literal behind columns
	// uaid<i>/utruth<i> of the query output.
	ULits []mln.Literal
	// ELits[j] is the existential literal behind columns eaid<j>/etruth<j>.
	ELits []mln.Literal
	// PostClosed are positive literals on closed predicates, checked
	// against evidence after the join (anti-join semantics under the CWA).
	PostClosed []PostClosedCheck
	// Skip means the clause is statically satisfied (e.g. "c = c") and
	// grounds to nothing.
	Skip bool
	// VarCols maps each clause variable to every alias.column of a table
	// literal binding it. A hash-range split restricts all of them, so
	// every scan of the variable prunes before the join.
	VarCols map[string][]ColRef
	// SplitVars lists the variables a hash-range split may partition on —
	// universally quantified and bound by at least one universal table
	// literal (so the existential fallback query binds them too) — ordered
	// by binding count (descending, ties by name) so SplitVars[0] is the
	// most join-restricting choice.
	SplitVars []string
}

// PostClosedCheck rebuilds the arguments of a closed positive literal from a
// query output row so the grounder can consult the evidence directly.
type PostClosedCheck struct {
	Lit mln.Literal
	// ConstVal[k] holds constant argument values.
	ConstVal []int32
	// VarIdx[n] is the argument position filled by the n-th pc column.
	VarIdx []int
	// varSrc[n] is the SQL expression selected for that column.
	varSrc []string
}

// CompileClauseSQL compiles an MLN clause to the SQL query that enumerates
// its non-pruned groundings (paper Algorithm 2 plus the pruning of Appendix
// A.3). Exposed for tests and the CLI's -explain mode.
func CompileClauseSQL(ts *TableSet, c *mln.Clause) (*Compiled, error) {
	if err := validateExistSafety(c); err != nil {
		return nil, err
	}
	out := &Compiled{}
	exist := make(map[string]bool, len(c.Exist))
	for _, v := range c.Exist {
		exist[v] = true
	}

	type tableLit struct {
		lit   mln.Literal
		alias string
		exist bool
	}
	var tlits []tableLit
	var builtins []mln.Literal
	for _, l := range c.Lits {
		if l.IsBuiltinEq() {
			builtins = append(builtins, l)
			continue
		}
		isExist := false
		for _, a := range l.Args {
			if a.IsVar && exist[a.Var] {
				isExist = true
			}
		}
		if !l.Negated && l.Pred.Closed && !isExist {
			out.PostClosed = append(out.PostClosed, PostClosedCheck{Lit: l})
			continue
		}
		alias := fmt.Sprintf("t%d", len(tlits))
		tlits = append(tlits, tableLit{lit: l, alias: alias, exist: isExist})
	}
	if len(tlits) == 0 {
		return nil, fmt.Errorf("no groundable literals (all closed-positive or builtin)")
	}

	// varCol maps each variable to the first table column binding it.
	type colRef struct{ alias, col string }
	varCol := make(map[string]colRef)
	out.VarCols = make(map[string][]ColRef)
	uBound := make(map[string]bool) // bound by a universal table literal
	var conds []string
	for _, tl := range tlits {
		for i, a := range tl.lit.Args {
			col := fmt.Sprintf("a%d", i)
			if !a.IsVar {
				conds = append(conds, fmt.Sprintf("%s.%s = %d", tl.alias, col, a.Const))
				continue
			}
			out.VarCols[a.Var] = append(out.VarCols[a.Var], ColRef{tl.alias, col})
			if !tl.exist {
				uBound[a.Var] = true
			}
			if first, ok := varCol[a.Var]; ok {
				conds = append(conds, fmt.Sprintf("%s.%s = %s.%s", first.alias, first.col, tl.alias, col))
			} else {
				varCol[a.Var] = colRef{tl.alias, col}
			}
		}
		// Evidence pruning: a grounding is discarded when any literal is
		// satisfied by evidence (positive & true, or negative & false).
		// Existential literals are exempt: the fold needs to SEE evidence-
		// true witnesses, because one true witness satisfies (prunes) the
		// whole clause.
		if tl.exist {
			continue
		}
		if tl.lit.Negated {
			conds = append(conds, fmt.Sprintf("%s.truth <> %d", tl.alias, TruthFalse))
		} else {
			conds = append(conds, fmt.Sprintf("%s.truth <> %d", tl.alias, TruthTrue))
		}
	}

	// Split candidates: universal variables bound by a universal table
	// literal. The existential fallback recompiles ULits(+PostClosed) alone,
	// so only such variables are guaranteed bound there too; existential
	// variables are excluded because splitting them would scatter one
	// universal binding's witness group across ranges.
	for v := range uBound {
		if !exist[v] {
			out.SplitVars = append(out.SplitVars, v)
		}
	}
	sort.Slice(out.SplitVars, func(i, j int) bool {
		a, b := out.SplitVars[i], out.SplitVars[j]
		if la, lb := len(out.VarCols[a]), len(out.VarCols[b]); la != lb {
			return la > lb
		}
		return a < b
	})

	// Built-in (in)equalities become join conditions with flipped operator:
	// groundings where the builtin literal is TRUE are satisfied (pruned),
	// so the query keeps only those where it is FALSE; the literal drops.
	for _, b := range builtins {
		operandStr := func(t mln.Term) (string, error) {
			if !t.IsVar {
				return fmt.Sprint(t.Const), nil
			}
			cr, ok := varCol[t.Var]
			if !ok {
				return "", fmt.Errorf("equality variable %s unbound", t.Var)
			}
			return cr.alias + "." + cr.col, nil
		}
		if !b.Args[0].IsVar && !b.Args[1].IsVar {
			litTrue := (b.Args[0].Const == b.Args[1].Const) != b.Negated
			if litTrue {
				out.Skip = true
				return out, nil
			}
			continue // statically false: drop the literal
		}
		ls, err := operandStr(b.Args[0])
		if err != nil {
			return nil, err
		}
		rs, err := operandStr(b.Args[1])
		if err != nil {
			return nil, err
		}
		if b.Negated {
			conds = append(conds, fmt.Sprintf("%s = %s", ls, rs)) // (l != r) false iff l = r
		} else {
			conds = append(conds, fmt.Sprintf("%s <> %s", ls, rs))
		}
	}

	// Post-join evidence checks: variables must be bound by other literals.
	for pi := range out.PostClosed {
		pc := &out.PostClosed[pi]
		pc.ConstVal = make([]int32, len(pc.Lit.Args))
		for k, a := range pc.Lit.Args {
			if !a.IsVar {
				pc.ConstVal[k] = a.Const
				continue
			}
			cr, ok := varCol[a.Var]
			if !ok {
				return nil, fmt.Errorf("variable %s of closed positive literal %s unbound by other literals",
					a.Var, pc.Lit.Format(ts.Prog.Syms))
			}
			pc.VarIdx = append(pc.VarIdx, k)
			pc.varSrc = append(pc.varSrc, cr.alias+"."+cr.col)
		}
	}

	// SELECT list: universal aid/truth pairs, post-closed binding columns,
	// existential aid/truth pairs — in that fixed order.
	var sel []string
	var orderCols []string
	uIdx := 0
	for _, tl := range tlits {
		if tl.exist {
			continue
		}
		out.ULits = append(out.ULits, tl.lit)
		sel = append(sel, fmt.Sprintf("%s.aid AS uaid%d", tl.alias, uIdx))
		sel = append(sel, fmt.Sprintf("%s.truth AS utruth%d", tl.alias, uIdx))
		orderCols = append(orderCols, fmt.Sprintf("uaid%d", uIdx))
		uIdx++
	}
	for pi := range out.PostClosed {
		pc := &out.PostClosed[pi]
		for n, src := range pc.varSrc {
			sel = append(sel, fmt.Sprintf("%s AS pc%d_%d", src, pi, n))
		}
	}
	eIdx := 0
	for _, tl := range tlits {
		if !tl.exist {
			continue
		}
		out.ELits = append(out.ELits, tl.lit)
		sel = append(sel, fmt.Sprintf("%s.aid AS eaid%d", tl.alias, eIdx))
		sel = append(sel, fmt.Sprintf("%s.truth AS etruth%d", tl.alias, eIdx))
		eIdx++
	}

	var from []string
	for _, tl := range tlits {
		from = append(from, TableName(tl.lit.Pred)+" "+tl.alias)
	}

	var b strings.Builder
	b.WriteString("SELECT ")
	b.WriteString(strings.Join(sel, ", "))
	b.WriteString(" FROM ")
	b.WriteString(strings.Join(from, ", "))
	if len(conds) > 0 {
		b.WriteString(" WHERE ")
		b.WriteString(strings.Join(conds, " AND "))
	}
	if len(out.ELits) > 0 && len(orderCols) > 0 {
		b.WriteString(" ORDER BY ")
		b.WriteString(strings.Join(orderCols, ", "))
	}
	out.SQL = b.String()
	return out, nil
}

// evalPostClosed reports whether any closed positive literal is satisfied by
// evidence for this row (which prunes the grounding).
func evalPostClosed(ts *TableSet, comp *Compiled, row []int64, pcBase int) bool {
	col := pcBase
	for _, pc := range comp.PostClosed {
		args := make([]int32, len(pc.Lit.Args))
		copy(args, pc.ConstVal)
		for _, k := range pc.VarIdx {
			args[k] = int32(row[col])
			col++
		}
		if ts.Ev.TruthOf(pc.Lit.Pred, args) == mln.True {
			return true
		}
	}
	return false
}

func (c *Compiled) pcWidth() int {
	n := 0
	for _, pc := range c.PostClosed {
		n += len(pc.VarIdx)
	}
	return n
}

// clauseRange identifies one hash range of a clause's grounding work:
// groundings where split variable v's value hashes to rem modulo mod.
type clauseRange struct {
	v        string
	mod, rem uint32
}

// rangeRestrictions translates a clause range into hash-range restrictions on
// every table column binding the split variable. The join conditions equate
// those columns, so restricting all of them leaves the query's semantics
// unchanged while letting every scan prune to ~1/mod of its table before the
// join. A nil range restricts nothing.
func rangeRestrictions(comp *Compiled, rng *clauseRange) ([]plan.HashRange, error) {
	if rng == nil {
		return nil, nil
	}
	refs := comp.VarCols[rng.v]
	if len(refs) == 0 {
		return nil, fmt.Errorf("split variable %s unbound in compiled query %q", rng.v, comp.SQL)
	}
	out := make([]plan.HashRange, 0, len(refs))
	for _, r := range refs {
		out = append(out, plan.HashRange{Table: r.Alias, Col: r.Col, Mod: rng.mod, Rem: rng.rem})
	}
	return out, nil
}

// groundClauseSQL compiles, executes and folds one clause's groundings.
func groundClauseSQL(ts *TableSet, c *mln.Clause, stats *Stats) ([]rawClause, error) {
	comp, err := CompileClauseSQL(ts, c)
	if err != nil {
		return nil, err
	}
	out, err := groundCompiled(ts, c, comp, nil, stats)
	if err != nil {
		return nil, err
	}
	// Canonical order (see canon.go): makes the folded groundings — and
	// therefore the MRF built from them — independent of aid numbering and
	// SQL row order, which is what lets an incremental re-ground reproduce a
	// fresh Ground bit for bit.
	return canonRaws(ts, out), nil
}

// groundCompiled executes a compiled clause query — optionally restricted to
// one hash range of its split variable — and folds the rows into raw ground
// clauses. The output is NOT canonicalized: range outputs of one clause must
// be concatenated in range order first and canonicalized together, so the
// result matches an unsplit run bit for bit.
func groundCompiled(ts *TableSet, c *mln.Clause, comp *Compiled, rng *clauseRange, stats *Stats) ([]rawClause, error) {
	if comp.Skip {
		return nil, nil
	}
	restr, err := rangeRestrictions(comp, rng)
	if err != nil {
		return nil, err
	}
	rows, err := ts.DB.QueryRanged(comp.SQL, restr)
	if err != nil {
		return nil, fmt.Errorf("executing %q: %w", comp.SQL, err)
	}
	stats.JoinRowsVisited += int64(len(rows.Data))
	width := 2*len(comp.ULits) + comp.pcWidth() + 2*len(comp.ELits)
	if peak := int64(len(rows.Data)) * int64(8*width); peak > stats.PeakBytes {
		stats.PeakBytes = peak
	}

	nU := len(comp.ULits)
	pcBase := 2 * nU
	eBase := pcBase + comp.pcWidth()

	// Convert rows to int64 slices once.
	intRow := make([]int64, width)
	var out []rawClause

	type groupState struct {
		key       string
		satisfied bool
		aids      []int64
		pos       []bool
		valid     bool
	}
	var g groupState
	witnessed := make(map[string]bool)

	flush := func() {
		if g.valid && !g.satisfied {
			out = append(out, rawClause{weight: c.Weight, aids: g.aids, pos: g.pos})
		}
		g = groupState{}
	}

	var keyBuf []byte

	for _, row := range rows.Data {
		for i := range intRow {
			intRow[i] = row[i].I
		}
		if evalPostClosed(ts, comp, intRow, pcBase) {
			continue
		}
		var aids []int64
		var pos []bool
		for i, lit := range comp.ULits {
			aid := intRow[2*i]
			truth := intRow[2*i+1]
			if truth != TruthUnknown {
				// The satisfied combinations were pruned by SQL; what is
				// left is a literal that evidence makes false — drop it.
				continue
			}
			aids = append(aids, aid)
			pos = append(pos, !lit.Negated)
		}
		if len(comp.ELits) == 0 {
			out = append(out, rawClause{weight: c.Weight, aids: aids, pos: pos})
			continue
		}
		// One string per group, not per row: the comparison and the map
		// lookup on string(keyBuf) do not allocate.
		keyBuf = appendUKey(keyBuf[:0], intRow, nU)
		if !g.valid || g.key != string(keyBuf) {
			flush()
			g = groupState{key: string(keyBuf), valid: true, aids: aids, pos: pos}
			witnessed[g.key] = true
		}
		for j := range comp.ELits {
			eaid := intRow[eBase+2*j]
			etruth := intRow[eBase+2*j+1]
			switch etruth {
			case TruthTrue:
				g.satisfied = true // evidence-true witness satisfies the clause
			case TruthFalse:
				// false witness contributes nothing
			default:
				g.aids = append(g.aids, eaid)
				g.pos = append(g.pos, true)
			}
		}
	}
	if len(comp.ELits) > 0 {
		flush()
		extra, err := existentialFallback(ts, c, comp, rng, witnessed, stats)
		if err != nil {
			return nil, err
		}
		out = append(out, extra...)
	}
	return out, nil
}

// appendUKey renders the group key of one joined row: the aids of its nU
// universal literals.
func appendUKey(buf []byte, row []int64, nU int) []byte {
	for i := 0; i < nU; i++ {
		buf = strconv.AppendInt(buf, row[2*i], 10)
		buf = append(buf, ',')
	}
	return buf
}

// existentialFallback grounds the universal part alone to catch bindings
// with no existential witness at all (inner joins drop them), for which the
// clause reduces to its universal literals. Under a hash-range split the
// fallback query carries the same restriction, re-derived from its own
// recompilation (aliases renumber), so each binding surfaces in exactly one
// range — and its witnesses, which share the split variable's value, are
// grounded by the same range's main query.
func existentialFallback(ts *TableSet, c *mln.Clause, comp *Compiled, rng *clauseRange, witnessed map[string]bool, stats *Stats) ([]rawClause, error) {
	if len(comp.ULits) == 0 {
		return nil, nil
	}
	uClause := &mln.Clause{Weight: c.Weight, Source: c.Source + " [existential fallback]"}
	uClause.Lits = append(uClause.Lits, comp.ULits...)
	for _, pc := range comp.PostClosed {
		uClause.Lits = append(uClause.Lits, pc.Lit)
	}
	uComp, err := CompileClauseSQL(ts, uClause)
	if err != nil {
		return nil, err
	}
	if uComp.Skip {
		return nil, nil
	}
	restr, err := rangeRestrictions(uComp, rng)
	if err != nil {
		return nil, fmt.Errorf("existential fallback: %w", err)
	}
	uRows, err := ts.DB.QueryRanged(uComp.SQL, restr)
	if err != nil {
		return nil, err
	}
	stats.JoinRowsVisited += int64(len(uRows.Data))

	nU := len(uComp.ULits)
	pcBase := 2 * nU
	width := pcBase + uComp.pcWidth()
	intRow := make([]int64, width)
	var out []rawClause
	var keyBuf []byte
	for _, row := range uRows.Data {
		for i := range intRow {
			intRow[i] = row[i].I
		}
		if evalPostClosed(ts, uComp, intRow, pcBase) {
			continue
		}
		keyBuf = appendUKey(keyBuf[:0], intRow, nU)
		if witnessed[string(keyBuf)] {
			continue
		}
		var aids []int64
		var pos []bool
		for i, lit := range uComp.ULits {
			if intRow[2*i+1] != TruthUnknown {
				continue
			}
			aids = append(aids, intRow[2*i])
			pos = append(pos, !lit.Negated)
		}
		out = append(out, rawClause{weight: c.Weight, aids: aids, pos: pos})
	}
	return out, nil
}

// validateExistSafety rejects existential clauses whose universally
// quantified variables appear only inside existential literals: the
// grounding fold groups by the universal literals' atom ids, which would
// wrongly merge distinct bindings of such variables.
func validateExistSafety(c *mln.Clause) error {
	if len(c.Exist) == 0 {
		return nil
	}
	exist := make(map[string]bool, len(c.Exist))
	for _, v := range c.Exist {
		exist[v] = true
	}
	boundByUniversal := make(map[string]bool)
	for _, l := range c.Lits {
		if l.IsBuiltinEq() || hasExistVar(l, exist) {
			continue
		}
		for _, a := range l.Args {
			if a.IsVar {
				boundByUniversal[a.Var] = true
			}
		}
	}
	for _, l := range c.Lits {
		if l.IsBuiltinEq() || !hasExistVar(l, exist) {
			continue
		}
		for _, a := range l.Args {
			if a.IsVar && !exist[a.Var] && !boundByUniversal[a.Var] {
				return fmt.Errorf("unsafe existential clause: variable %s appears only in existential literals", a.Var)
			}
		}
	}
	return nil
}

// activeClosure implements the lazy-inference closure of Appendix A.3:
// assume unknown atoms false; a positive-weight clause is active when every
// one of its negated literals is on an active atom; activating a clause
// activates all its atoms; iterate to fixpoint. Hard and negative-weight
// clauses are always active (the all-false default does not cover their
// cost structure) and seed the active set.
func activeClosure(raws []rawClause) []rawClause {
	active := make(map[int64]bool)
	kept := make([]bool, len(raws))
	for i, r := range raws {
		if len(r.aids) == 0 {
			kept[i] = true
			continue
		}
		seed := r.weight < 0 || math.IsInf(r.weight, 1)
		if !seed {
			seed = true
			for _, p := range r.pos {
				if !p {
					seed = false
					break
				}
			}
		}
		if seed {
			kept[i] = true
			for _, a := range r.aids {
				active[a] = true
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for i, r := range raws {
			if kept[i] {
				continue
			}
			ok := true
			for j, p := range r.pos {
				if !p && !active[r.aids[j]] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			kept[i] = true
			changed = true
			for _, a := range r.aids {
				active[a] = true
			}
		}
	}
	out := raws[:0]
	for i, r := range raws {
		if kept[i] {
			out = append(out, r)
		}
	}
	return out
}
