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
	// bottom-up strategy; values below 2 run the same schedule on one. The
	// grounding result is identical for every worker count: each task sorts
	// its raws into the canonical order and a clause's tasks merge in it. A
	// clause whose estimated cost exceeds a fair share of the total is
	// partitioned into Workers hash ranges of a join variable and the ranges
	// ground concurrently.
	Workers int
}

// RawSet is one first-order clause's raw groundings — ground clauses before
// MRF atom renumbering — in the one form they ever have: raw j's literals are
// lits[off[j]:off[j+1]], each encoded aid<<1|positive, and every raw carries
// the clause's weight. The grounding queries append their rows straight into
// it, the fold and the closure read it, the incremental grounder retains it
// between updates and the snapshot stores it. Two allocations per clause,
// and nothing in them for the garbage collector to scan.
//
// While a set is being built, the literals past the last offset are the
// open raw: appended one by one, then closed by endRaw or discarded by
// dropOpen.
type RawSet struct {
	weight float64
	off    []uint32
	lits   []uint64
}

func rawLit(aid int64, positive bool) uint64 {
	v := uint64(aid) << 1
	if positive {
		v |= 1
	}
	return v
}

func (s RawSet) n() int { return max(len(s.off)-1, 0) }

func (s RawSet) raw(j int) []uint64 { return s.lits[s.off[j]:s.off[j+1]] }

// endRaw closes the open raw (an empty one is a grounding evidence decided).
func (s *RawSet) endRaw() {
	if len(s.off) == 0 {
		s.off = append(s.off, 0)
	}
	s.off = append(s.off, uint32(len(s.lits)))
}

// dropOpen discards the open raw's literals.
func (s *RawSet) dropOpen() {
	if len(s.off) == 0 {
		s.lits = s.lits[:0]
	} else {
		s.lits = s.lits[:s.off[len(s.off)-1]]
	}
}

// appendRaw adds one whole raw grounding.
func (s *RawSet) appendRaw(lits []uint64) {
	s.lits = append(s.lits, lits...)
	s.endRaw()
}

// GroundBottomUp grounds the program by compiling one SQL query per clause
// and executing it on the RDBMS (the paper's Section 3.1). The join order
// and algorithms are chosen by the engine's optimizer, subject to the
// engine's plan.Options (which the Table 6 lesion study manipulates). It is
// NewIncremental with the grounder dropped; see groundSelectedSQL for the
// schedule and its determinism and cancellation contract.
func GroundBottomUp(ctx context.Context, ts *TableSet, opts Options) (*Result, error) {
	_, res, err := NewIncremental(ctx, ts, opts)
	return res, err
}

// groundSelectedSQL compiles and executes the grounding query of every
// selected clause (sel[i] reports whether clause i runs; nil selects all),
// writing canonical raw groundings and stats into perClause/perStats by
// clause ID. Unselected slots are left untouched, which is how the
// incremental grounder reuses cached raws.
//
// There is one schedule for every worker count: compile, pick splits, run
// clause×range tasks on max(Workers, 1) goroutines. Each clause whose
// estimated query cost exceeds a fair share of the total is partitioned into
// Workers hash ranges of a join variable (see planSplits; never below two
// workers), so a single dominant clause no longer serializes the phase. Task
// scheduling never changes the output: each (clause, range) slot is written
// by exactly one goroutine, each task puts its own output into canonical
// order (canonSet), and a split clause's ranges are merged in that order
// (mergeCanon) — the canonical order of the unsplit query's multiset, so
// the result is bit-identical for every worker count and split decision.
//
// Cancellation: workers poll the context before each task; a canceled
// context aborts the grounding with the context's cause (there is no partial
// grounding result).
func groundSelectedSQL(ctx context.Context, ts *TableSet, opts Options, perClause []RawSet, perStats []Stats, sel []bool) error {
	clauses := ts.Prog.Clauses
	workers := max(opts.Workers, 1)

	// Compile every selected clause once, up front: the scheduler costs the
	// compiled queries to pick splits, and range tasks share a compilation.
	var run []int
	comps := make([]*Compiled, len(clauses))
	for i, c := range clauses {
		if sel != nil && !sel[i] {
			continue
		}
		comp, err := CompileClauseSQL(ts, c)
		if err != nil {
			return fmt.Errorf("grounding clause %d (%s): %w", c.ID, c.Source, err)
		}
		comps[i] = comp
		run = append(run, i)
	}
	splits := planSplits(ts, comps, run, workers)

	// One task per clause, or per hash range of a split clause; its output
	// slot is written by whichever worker takes it.
	type task struct {
		clause int
		rng    *clauseRange // nil: whole clause
		raws   RawSet
		stats  Stats
		err    error
	}
	var tasks []task
	for _, i := range run {
		if splits[i] < 2 {
			tasks = append(tasks, task{clause: i})
			continue
		}
		for r := 0; r < splits[i]; r++ {
			tasks = append(tasks, task{clause: i, rng: &clauseRange{
				v: comps[i].SplitVars[0], mod: uint32(splits[i]), rem: uint32(r),
			}})
		}
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
				t := &tasks[n]
				raws, err := groundCompiled(ts, clauses[t.clause], comps[t.clause], t.rng, &t.stats)
				if err != nil {
					t.err = err
					failed.Store(true) // fail fast
					return
				}
				// Canonical order inside the task: sorting dominates the cost
				// of large clauses, and per-range sorts run in parallel.
				t.raws = canonSet(ts, raws)
			}
		}()
	}
	wg.Wait()
	if err := context.Cause(ctx); ctx.Err() != nil {
		return err
	}
	// Report the first error in clause-then-range order so failures are
	// deterministic across worker counts and schedules.
	for _, t := range tasks {
		if t.err != nil {
			c := clauses[t.clause]
			return fmt.Errorf("grounding clause %d (%s): %w", c.ID, c.Source, t.err)
		}
	}
	// Tasks are in clause-then-range order: each clause's are adjacent.
	for lo := 0; lo < len(tasks); {
		i := tasks[lo].clause
		hi := lo
		var parts []RawSet
		perStats[i] = Stats{}
		for ; hi < len(tasks) && tasks[hi].clause == i; hi++ {
			parts = append(parts, tasks[hi].raws)
			perStats[i].absorb(tasks[hi].stats)
		}
		perClause[i] = mergeCanon(ts, parts)
		lo = hi
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
	if workers < 2 {
		return nil // nothing to fan out to: no estimate is worth asking for
	}
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

// assembleResult folds the per-clause raw groundings, in clause-ID order and
// after the optional active closure, through the clause accumulator. It only
// reads the sets: the incremental grounder retains the very same ones.
func assembleResult(ts *TableSet, perClause []RawSet, perStats []Stats, opts Options) *Result {
	stats := Stats{}
	for _, st := range perStats {
		stats.absorb(st)
	}
	if opts.UseClosure {
		perClause = activeClosure(perClause)
	}
	return foldRaws(ts, perClause, stats)
}

// foldRaws accumulates every raw of sets into the canonical Result.
func foldRaws(ts *TableSet, sets []RawSet, stats Stats) *Result {
	ca := newClauseAccumulator(ts)
	for _, s := range sets {
		for j := 0; j < s.n(); j++ {
			ca.add(s.weight, s.raw(j))
		}
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

// groundCompiled executes a compiled clause query — optionally restricted to
// one hash range of its split variable — and appends each surviving row's
// literals straight into a RawSet. The output is in row order, not canonical
// order: canonSet sorts it.
func groundCompiled(ts *TableSet, c *mln.Clause, comp *Compiled, rng *clauseRange, stats *Stats) (RawSet, error) {
	out := RawSet{weight: c.Weight}
	if comp.Skip {
		return out, nil
	}
	restr, err := rangeRestrictions(comp, rng)
	if err != nil {
		return out, err
	}
	rows, err := ts.DB.QueryRanged(comp.SQL, restr)
	if err != nil {
		return out, fmt.Errorf("executing %q: %w", comp.SQL, err)
	}
	stats.JoinRowsVisited += int64(len(rows.Data))
	width := 2*len(comp.ULits) + comp.pcWidth() + 2*len(comp.ELits)
	if peak := int64(len(rows.Data)) * int64(8*width); peak > stats.PeakBytes {
		stats.PeakBytes = peak
	}

	nU := len(comp.ULits)
	pcBase := 2 * nU
	eBase := pcBase + comp.pcWidth()
	intRow := make([]int64, width)

	// With existential literals the rows arrive grouped by universal binding
	// (ORDER BY): a group is the open raw, its witnesses accumulate across
	// rows, and one evidence-true witness satisfies — drops — the whole group.
	var group, keyBuf []byte // universal aids of the open group, of this row
	open, satisfied := false, false
	witnessed := make(map[string]bool)
	closeGroup := func() {
		if !open {
			return
		}
		if satisfied {
			out.dropOpen()
		} else {
			out.endRaw()
		}
	}

	for _, row := range rows.Data {
		for i := range intRow {
			intRow[i] = row[i].I
		}
		if evalPostClosed(ts, comp, intRow, pcBase) {
			continue
		}
		if len(comp.ELits) == 0 {
			appendULits(&out, comp, intRow)
			out.endRaw()
			continue
		}
		// One string per group, not per row: comparing string(keyBuf) does
		// not allocate.
		keyBuf = appendUKey(keyBuf[:0], intRow, nU)
		if !open || string(group) != string(keyBuf) {
			closeGroup()
			group = append(group[:0], keyBuf...)
			open, satisfied = true, false
			witnessed[string(group)] = true
			appendULits(&out, comp, intRow)
		}
		for j := range comp.ELits {
			switch intRow[eBase+2*j+1] {
			case TruthTrue:
				satisfied = true // evidence-true witness satisfies the clause
			case TruthFalse:
				// false witness contributes nothing
			default:
				out.lits = append(out.lits, rawLit(intRow[eBase+2*j], true))
			}
		}
	}
	if len(comp.ELits) > 0 {
		closeGroup()
		if err := existentialFallback(ts, c, comp, rng, witnessed, stats, &out); err != nil {
			return out, err
		}
	}
	return out, nil
}

// appendULits appends one row's universal literals to the open raw. The
// combinations evidence satisfies were pruned by SQL; a literal whose truth
// is known here is one evidence makes false — it drops.
func appendULits(out *RawSet, comp *Compiled, row []int64) {
	for i, lit := range comp.ULits {
		if row[2*i+1] == TruthUnknown {
			out.lits = append(out.lits, rawLit(row[2*i], !lit.Negated))
		}
	}
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
// clause reduces to its universal literals; they are appended to out. Under
// a hash-range split the fallback query carries the same restriction,
// re-derived from its own recompilation (aliases renumber), so each binding
// surfaces in exactly one range — and its witnesses, which share the split
// variable's value, are grounded by the same range's main query.
func existentialFallback(ts *TableSet, c *mln.Clause, comp *Compiled, rng *clauseRange, witnessed map[string]bool, stats *Stats, out *RawSet) error {
	if len(comp.ULits) == 0 {
		return nil
	}
	uClause := &mln.Clause{Weight: c.Weight, Source: c.Source + " [existential fallback]"}
	uClause.Lits = append(uClause.Lits, comp.ULits...)
	for _, pc := range comp.PostClosed {
		uClause.Lits = append(uClause.Lits, pc.Lit)
	}
	uComp, err := CompileClauseSQL(ts, uClause)
	if err != nil {
		return err
	}
	if uComp.Skip {
		return nil
	}
	restr, err := rangeRestrictions(uComp, rng)
	if err != nil {
		return fmt.Errorf("existential fallback: %w", err)
	}
	uRows, err := ts.DB.QueryRanged(uComp.SQL, restr)
	if err != nil {
		return err
	}
	stats.JoinRowsVisited += int64(len(uRows.Data))

	nU := len(uComp.ULits)
	pcBase := 2 * nU
	intRow := make([]int64, pcBase+uComp.pcWidth())
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
		appendULits(out, uComp, intRow)
		out.endRaw()
	}
	return nil
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

// activeClosure implements the lazy-inference closure of Appendix A.3 over
// all clauses' raws at once: assume unknown atoms false; a positive-weight
// clause is active when every one of its negated literals is on an active
// atom; activating a clause activates all its atoms; iterate to fixpoint.
// Hard and negative-weight clauses are always active (the all-false default
// does not cover their cost structure) and seed the active set, as do
// evidence-decided (empty) raws. It returns the active raws as new sets, in
// order; the fixpoint depends on the raws as a set, not on their order.
func activeClosure(sets []RawSet) []RawSet {
	active := make(map[uint64]bool)
	activate := func(raw []uint64) {
		for _, v := range raw {
			active[v>>1] = true
		}
	}
	// A raw is ready when no negated literal of it sits on an inactive atom.
	ready := func(raw []uint64) bool {
		for _, v := range raw {
			if v&1 == 0 && !active[v>>1] {
				return false
			}
		}
		return true
	}
	kept := make([][]bool, len(sets))
	for i, s := range sets {
		kept[i] = make([]bool, s.n())
	}
	for changed := true; changed; {
		changed = false
		for i, s := range sets {
			always := s.weight < 0 || math.IsInf(s.weight, 1)
			for j, k := range kept[i] {
				if raw := s.raw(j); !k && (always || ready(raw)) {
					kept[i][j], changed = true, true
					activate(raw)
				}
			}
		}
	}
	out := make([]RawSet, len(sets))
	for i, s := range sets {
		out[i].weight = s.weight
		for j, k := range kept[i] {
			if k {
				out[i].appendRaw(s.raw(j))
			}
		}
	}
	return out
}
