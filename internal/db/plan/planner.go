package plan

import (
	"fmt"
	"math"
	"strings"

	"tuffy/internal/db/exec"
	"tuffy/internal/db/tuple"
)

// Catalog resolves table names for the planner.
type Catalog interface {
	TableMeta(name string) (TableMeta, bool)
}

// TableMeta is what the planner needs to know about a base table: its
// schema, statistics for cardinality estimation, and a way to scan it.
type TableMeta interface {
	Schema() tuple.Schema
	RowCount() int64
	// DistinctCount estimates the number of distinct values in a column.
	DistinctCount(col int) int64
	// NewScan returns a fresh full-table scan iterator.
	NewScan() exec.Iterator
}

// Options are the optimizer knobs. The zero value is the full optimizer;
// each field is one of the Table 6 lesions.
type Options struct {
	// ForceJoinOrder pins the join order to the FROM-clause order
	// (left-deep), disabling cost-based reordering.
	ForceJoinOrder bool
	// NestedLoopOnly disables every join algorithm but nested loops.
	NestedLoopOnly bool
}

// Planner compiles SelectStmts to executable iterators.
type Planner struct {
	Cat  Catalog
	Opts Options
}

// NewPlanner returns a planner over cat with opts.
func NewPlanner(cat Catalog, opts Options) *Planner {
	return &Planner{Cat: cat, Opts: opts}
}

// relation is one input of the join search.
type relation struct {
	item    FromItem
	meta    TableMeta
	sch     tuple.Schema // alias-qualified column names
	filters []Cond
	ranges  []HashRange
	access  *accessPlan // chosen access path (cost node)
}

// Plan compiles a SELECT into an iterator tree. The result's schema has the
// projection aliases as column names.
func (p *Planner) Plan(stmt *SelectStmt) (exec.Iterator, error) {
	it, _, err := p.PlanExplain(stmt)
	return it, err
}

// EstimateSelect runs the optimizer without executing anything and returns
// its Explain: the chosen join order, access path per range variable, and
// the root Plan node's cost estimates. The grounding scheduler uses it to
// find a query's dominant cost; tests use it to pin optimizer choices.
func (p *Planner) EstimateSelect(stmt *SelectStmt) (*Explain, error) {
	_, ex, err := p.PlanExplain(stmt)
	return ex, err
}

// PlanExplain compiles a SELECT into an iterator tree and also reports the
// optimizer's choices.
func (p *Planner) PlanExplain(stmt *SelectStmt) (exec.Iterator, *Explain, error) {
	if len(stmt.From) == 0 {
		return nil, nil, fmt.Errorf("plan: SELECT requires FROM")
	}
	rels := make([]*relation, len(stmt.From))
	seen := map[string]bool{}
	for i, f := range stmt.From {
		meta, ok := p.Cat.TableMeta(f.Table)
		if !ok {
			return nil, nil, fmt.Errorf("plan: unknown table %q", f.Table)
		}
		name := f.Name()
		if seen[strings.ToLower(name)] {
			return nil, nil, fmt.Errorf("plan: duplicate range variable %q", name)
		}
		seen[strings.ToLower(name)] = true
		base := meta.Schema()
		cols := make([]tuple.Column, len(base.Cols))
		for j, c := range base.Cols {
			cols[j] = tuple.Column{Name: name + "." + c.Name, Type: c.Type}
		}
		rels[i] = &relation{item: f, meta: meta, sch: tuple.Schema{Cols: cols}}
	}

	// Attach hash-range restrictions to their range variables.
	for _, hr := range stmt.Ranges {
		attached := false
		for _, r := range rels {
			if strings.EqualFold(hr.Table, r.item.Name()) {
				if r.meta.Schema().ColIndex(hr.Col) < 0 {
					return nil, nil, fmt.Errorf("plan: hash range on unknown column %s.%s", hr.Table, hr.Col)
				}
				if hr.Mod == 0 || hr.Rem >= hr.Mod {
					return nil, nil, fmt.Errorf("plan: hash range %d mod %d invalid", hr.Rem, hr.Mod)
				}
				r.ranges = append(r.ranges, hr)
				attached = true
				break
			}
		}
		if !attached {
			return nil, nil, fmt.Errorf("plan: hash range on unknown range variable %q", hr.Table)
		}
	}

	// Split WHERE into single-relation filters and join conditions.
	var joinConds []Cond
	for _, c := range stmt.Where {
		lRel, err := p.condRelation(rels, c.L)
		if err != nil {
			return nil, nil, err
		}
		rRel, err := p.condRelation(rels, c.R)
		if err != nil {
			return nil, nil, err
		}
		switch {
		case lRel == nil && rRel == nil:
			// constant condition: keep as global filter on first relation
			rels[0].filters = append(rels[0].filters, c)
		case lRel != nil && (rRel == nil || rRel == lRel):
			lRel.filters = append(lRel.filters, c)
		case lRel == nil && rRel != nil:
			rRel.filters = append(rRel.filters, c)
		default:
			joinConds = append(joinConds, c)
		}
	}

	for _, r := range rels {
		p.costAccess(r)
	}

	order, rootCost, err := p.joinOrder(rels, joinConds)
	if err != nil {
		return nil, nil, err
	}
	ex := &Explain{Access: make(map[string]string, len(order))}
	for _, r := range order {
		ex.JoinOrder = append(ex.JoinOrder, r.item.Name())
		ex.Access[r.item.Name()] = r.access.describe()
	}
	ex.EstRows = rootCost.RecordsOutput()
	ex.EstBlocks = rootCost.BlocksAccessed()

	// Build the left-deep tree following order.
	cur, err := p.scanWithFilters(order[0])
	if err != nil {
		return nil, nil, err
	}
	curSch := cur.Schema()
	remaining := append([]Cond(nil), joinConds...)
	for _, r := range order[1:] {
		right, err := p.scanWithFilters(r)
		if err != nil {
			return nil, nil, err
		}
		nextSch := curSch.Concat(right.Schema())
		// Find applicable join conditions: both sides resolvable, one in
		// cur, one in right.
		var eqL, eqR []int
		var residual []exec.Expr
		var rest []Cond
		for _, c := range remaining {
			le, lok := resolveOperand(c.L, nextSch)
			re, rok := resolveOperand(c.R, nextSch)
			if !lok || !rok {
				rest = append(rest, c)
				continue
			}
			lIdx, lIsCol := colIndex(le)
			rIdx, rIsCol := colIndex(re)
			if c.Op == exec.CmpEq && lIsCol && rIsCol {
				switch {
				case lIdx < curSch.Arity() && rIdx >= curSch.Arity():
					eqL = append(eqL, lIdx)
					eqR = append(eqR, rIdx-curSch.Arity())
					continue
				case rIdx < curSch.Arity() && lIdx >= curSch.Arity():
					eqL = append(eqL, rIdx)
					eqR = append(eqR, lIdx-curSch.Arity())
					continue
				}
			}
			residual = append(residual, exec.Cmp{Op: c.Op, L: le, R: re})
		}
		remaining = rest
		var res exec.Expr
		if len(residual) == 1 {
			res = residual[0]
		} else if len(residual) > 1 {
			res = exec.And{Kids: residual}
		}
		cur = p.physicalJoin(cur, right, eqL, eqR, res)
		curSch = cur.Schema()
	}
	if len(remaining) > 0 {
		// Conditions referencing unknown columns.
		return nil, nil, fmt.Errorf("plan: unresolved condition %v", remaining[0])
	}
	cur, curSch, err = p.buildProject(cur, curSch, stmt.Proj)
	if err != nil {
		return nil, nil, err
	}
	if len(stmt.OrderBy) > 0 {
		var cols []int
		for _, o := range stmt.OrderBy {
			idx := curSch.ColIndex(qualName(o))
			if idx < 0 {
				idx = curSch.ColIndex(o.Col)
			}
			if idx < 0 {
				return nil, nil, fmt.Errorf("plan: ORDER BY column %s not in output", o)
			}
			cols = append(cols, idx)
		}
		cur = exec.NewSort(cur, cols)
	}
	return cur, ex, nil
}

func qualName(o Operand) string {
	if o.Table != "" {
		return o.Table + "." + o.Col
	}
	return o.Col
}

// condRelation finds which relation an operand's column belongs to (nil for
// literals). Ambiguous unqualified names are an error.
func (p *Planner) condRelation(rels []*relation, o Operand) (*relation, error) {
	if !o.IsCol {
		return nil, nil
	}
	var found *relation
	for _, r := range rels {
		if o.Table != "" && !strings.EqualFold(o.Table, r.item.Name()) {
			continue
		}
		if r.sch.ColIndex(r.item.Name()+"."+o.Col) >= 0 {
			if found != nil {
				return nil, fmt.Errorf("plan: ambiguous column %q", o.Col)
			}
			found = r
		}
	}
	if found == nil {
		return nil, fmt.Errorf("plan: unknown column %s", o)
	}
	return found, nil
}

// resolveOperand turns an operand into an expression over sch.
func resolveOperand(o Operand, sch tuple.Schema) (exec.Expr, bool) {
	if !o.IsCol {
		return exec.Const{Val: o.Val}, true
	}
	if o.Table != "" {
		idx := sch.ColIndex(o.Table + "." + o.Col)
		if idx < 0 {
			return nil, false
		}
		return exec.ColRef{Idx: idx, Name: o.Table + "." + o.Col}, true
	}
	// Unqualified: match by suffix.
	idx := -1
	for i, c := range sch.Cols {
		if strings.EqualFold(c.Name, o.Col) || strings.HasSuffix(strings.ToLower(c.Name), "."+strings.ToLower(o.Col)) {
			if idx >= 0 {
				return nil, false // ambiguous
			}
			idx = i
		}
	}
	if idx < 0 {
		return nil, false
	}
	return exec.ColRef{Idx: idx, Name: sch.Cols[idx].Name}, true
}

func colIndex(e exec.Expr) (int, bool) {
	if c, ok := e.(exec.ColRef); ok {
		return c.Idx, true
	}
	return 0, false
}

// costAccess costs the relation's access path: a sequential scan reads B(t)
// pages, and a hash-range restriction divides the output cardinality by Mod
// (the scan still touches every page).
func (p *Planner) costAccess(r *relation) {
	rangeDiv := int64(1)
	for _, hr := range r.ranges {
		rangeDiv *= int64(hr.Mod)
	}
	rows := int64(p.estimateFiltered(r)) / rangeDiv
	if rows < 1 {
		rows = 1
	}
	r.access = &accessPlan{
		alias:    r.item.Name(),
		meta:     r.meta,
		rows:     rows,
		blocks:   tableBlocks(r.meta),
		rangeDiv: rangeDiv,
	}
}

// scanWithFilters builds the access path costed by costAccess: a
// hash-range or sequential scan, renamed to alias-qualified columns, with
// pushed-down filters (and any hash-range restriction the scan itself could
// not absorb) applied on top.
func (p *Planner) scanWithFilters(r *relation) (exec.Iterator, error) {
	base := r.meta.Schema()
	var inner exec.Iterator
	rangePushed := false
	if len(r.ranges) == 1 {
		if rm, ok := r.meta.(RangeMeta); ok {
			hr := r.ranges[0]
			inner = rm.NewRangeScan(base.ColIndex(hr.Col), hr.Mod, hr.Rem)
			rangePushed = true
		}
	}
	if inner == nil {
		inner = r.meta.NewScan()
	}
	var it exec.Iterator = &renameIter{Iterator: inner, sch: r.sch}

	var preds []exec.Expr
	for i, hr := range r.ranges {
		if i == 0 && rangePushed {
			continue
		}
		idx := base.ColIndex(hr.Col)
		if idx < 0 {
			return nil, fmt.Errorf("plan: hash range on unknown column %s.%s", hr.Table, hr.Col)
		}
		preds = append(preds, exec.HashInRange{Idx: idx, Mod: hr.Mod, Rem: hr.Rem})
	}
	for _, c := range r.filters {
		le, lok := resolveOperand(c.L, r.sch)
		re, rok := resolveOperand(c.R, r.sch)
		if !lok || !rok {
			return nil, fmt.Errorf("plan: cannot resolve filter %v on %s", c, r.item.Name())
		}
		preds = append(preds, exec.Cmp{Op: c.Op, L: le, R: re})
	}
	if len(preds) == 0 {
		return it, nil
	}
	var pred exec.Expr
	if len(preds) == 1 {
		pred = preds[0]
	} else {
		pred = exec.And{Kids: preds}
	}
	return exec.NewFilter(it, pred), nil
}

// renameIter overrides the child's schema with alias-qualified names.
type renameIter struct {
	exec.Iterator
	sch tuple.Schema
}

func (r *renameIter) Schema() tuple.Schema { return r.sch }

// estimateFiltered estimates a relation's cardinality after its pushed-down
// filters, using 1/distinct selectivity for equality with a constant (1/3
// for other equalities) and 0.9 for inequality.
func (p *Planner) estimateFiltered(r *relation) float64 {
	card := float64(r.meta.RowCount())
	base := r.meta.Schema()
	for _, c := range r.filters {
		sel := 0.9
		if c.Op == exec.CmpEq {
			sel = 1.0 / 3.0
			var colOp *Operand
			switch {
			case c.L.IsCol && !c.R.IsCol:
				colOp = &c.L
			case c.R.IsCol && !c.L.IsCol:
				colOp = &c.R
			}
			if colOp != nil {
				if idx := base.ColIndex(colOp.Col); idx >= 0 {
					if d := r.meta.DistinctCount(idx); d > 0 {
						sel = 1.0 / float64(d)
					}
				}
			}
		}
		card *= sel
	}
	if card < 1 {
		card = 1
	}
	return card
}

// joinEdge is one WHERE condition connecting two distinct relations,
// resolved to alias-qualified column names for Plan-node cost lookups.
type joinEdge struct {
	a, b   int // relation indexes, a < b
	isEq   bool
	lq, rq string // qualified columns of an equality edge
}

// joinEdges resolves the join conditions to relation-index edges.
func (p *Planner) joinEdges(rels []*relation, joinConds []Cond) ([]joinEdge, error) {
	relIdx := func(r *relation) int {
		for i := range rels {
			if rels[i] == r {
				return i
			}
		}
		return -1
	}
	var edges []joinEdge
	for _, c := range joinConds {
		lr, err := p.condRelation(rels, c.L)
		if err != nil {
			return nil, err
		}
		rr, err := p.condRelation(rels, c.R)
		if err != nil {
			return nil, err
		}
		if lr == nil || rr == nil || lr == rr {
			continue
		}
		e := joinEdge{a: relIdx(lr), b: relIdx(rr)}
		if c.Op == exec.CmpEq && c.L.IsCol && c.R.IsCol {
			e.isEq = true
			e.lq = lr.item.Name() + "." + c.L.Col
			e.rq = rr.item.Name() + "." + c.R.Col
		}
		if e.a > e.b {
			e.a, e.b = e.b, e.a
		}
		edges = append(edges, e)
	}
	return edges, nil
}

// stepCost costs joining candidate i onto the current Plan node using the
// edges that connect it to the joined set, and reports whether any did.
func stepCost(cur Plan, cand *relation, i int, inSet map[int]bool, edges []joinEdge) (Plan, bool) {
	var eqPairs [][2]string
	nonEq := 0
	conn := false
	for _, e := range edges {
		var other int
		switch {
		case e.a == i && inSet[e.b]:
			other = e.b
		case e.b == i && inSet[e.a]:
			other = e.a
		default:
			continue
		}
		_ = other
		conn = true
		if e.isEq {
			eqPairs = append(eqPairs, [2]string{e.lq, e.rq})
		} else {
			nonEq++
		}
	}
	return newJoinCostPlan(cur, cand.access, eqPairs, nonEq), conn
}

// joinOrder picks the join order by comparing Plan-node costs.
// ForceJoinOrder keeps FROM order (the Table 6 lesion) but still costs it
// for Explain; otherwise a greedy search starts from the access path with
// the fewest estimated records and extends with the relation whose join
// step has the smallest RecordsOutput, preferring relations connected by a
// join edge (avoiding cartesian products until forced). It returns the
// order and the root cost node of the resulting left-deep tree.
func (p *Planner) joinOrder(rels []*relation, joinConds []Cond) ([]*relation, Plan, error) {
	edges, err := p.joinEdges(rels, joinConds)
	if err != nil {
		return nil, nil, err
	}
	if p.Opts.ForceJoinOrder || len(rels) <= 1 {
		var cur Plan = rels[0].access
		inSet := map[int]bool{0: true}
		for i := 1; i < len(rels); i++ {
			cur, _ = stepCost(cur, rels[i], i, inSet, edges)
			inSet[i] = true
		}
		return rels, cur, nil
	}

	used := make([]bool, len(rels))
	// Start from the cheapest access path.
	start := 0
	for i, r := range rels {
		if r.access.RecordsOutput() < rels[start].access.RecordsOutput() {
			start = i
		}
	}
	order := []*relation{rels[start]}
	used[start] = true
	var cur Plan = rels[start].access
	inSet := map[int]bool{start: true}

	for len(order) < len(rels) {
		bestIdx := -1
		bestCard := int64(math.MaxInt64)
		var bestPlan Plan
		bestConnected := false
		for i, r := range rels {
			if used[i] {
				continue
			}
			cand, conn := stepCost(cur, r, i, inSet, edges)
			est := cand.RecordsOutput()
			// Prefer connected joins; among candidates minimize est size.
			if conn && !bestConnected {
				bestIdx, bestCard, bestPlan, bestConnected = i, est, cand, true
				continue
			}
			if conn == bestConnected && est < bestCard {
				bestIdx, bestCard, bestPlan = i, est, cand
			}
		}
		order = append(order, rels[bestIdx])
		used[bestIdx] = true
		inSet[bestIdx] = true
		cur = bestPlan
	}
	return order, cur, nil
}

// physicalJoin picks the join operator: a hash join on equi-join keys, and
// nested loops when there are none or NestedLoopOnly is set.
func (p *Planner) physicalJoin(left, right exec.Iterator, eqL, eqR []int, residual exec.Expr) exec.Iterator {
	if len(eqL) == 0 || p.Opts.NestedLoopOnly {
		// Fold equi keys back into the residual for NLJ correctness.
		var preds []exec.Expr
		for i := range eqL {
			preds = append(preds, exec.Cmp{Op: exec.CmpEq,
				L: exec.ColRef{Idx: eqL[i]},
				R: exec.ColRef{Idx: left.Schema().Arity() + eqR[i]}})
		}
		if residual != nil {
			preds = append(preds, residual)
		}
		var on exec.Expr
		if len(preds) == 1 {
			on = preds[0]
		} else if len(preds) > 1 {
			on = exec.And{Kids: preds}
		}
		return exec.NewNestedLoopJoin(left, right, on)
	}
	return exec.NewHashJoin(left, right, eqL, eqR, residual)
}

// buildProject compiles the SELECT list.
func (p *Planner) buildProject(cur exec.Iterator, sch tuple.Schema, items []ProjItem) (exec.Iterator, tuple.Schema, error) {
	exprs := make([]exec.Expr, len(items))
	names := make([]string, len(items))
	for i, it := range items {
		e, ok := resolveOperand(it.Col, sch)
		if !ok {
			return nil, tuple.Schema{}, fmt.Errorf("plan: unknown column %s", it.Col)
		}
		exprs[i], names[i] = e, it.Alias
		if names[i] == "" {
			names[i] = it.Col.Col
		}
	}
	proj, err := exec.NewProject(cur, exprs, names)
	if err != nil {
		return nil, tuple.Schema{}, err
	}
	return proj, proj.Schema(), nil
}
