package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"tuffy/internal/db"
	"tuffy/internal/grounding"
	"tuffy/internal/mln"
	"tuffy/internal/mrf"
	"tuffy/internal/partition"
	"tuffy/internal/search"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files: the program itself carries no instrumentation yet. Spans of one
// rep share Rep; Parent is the span that caused this one (-1 for a root).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	Name     string `json:"name"`
	// StartNs and EndNs are offsets from the tracer's origin.
	StartNs int64 `json:"startNs"`
	EndNs   int64 `json:"endNs"`
}

// tracer keeps spans in memory until the benchmark ends. The replay is
// sequential, so the open spans form a stack.
type tracer struct {
	origin   time.Time
	spans    []span
	open     []int
	workload string
	rep      int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(name string) {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Workload: t.workload, Rep: t.rep, Name: name, StartNs: int64(time.Since(t.origin))})
	t.open = append(t.open, id)
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() time.Duration {
	id := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[id]
	s.EndNs = int64(time.Since(t.origin))
	return time.Duration(s.EndNs - s.StartNs)
}

// selfCoverage is the share of a root span's duration that its direct
// children cover: one minus the root's self time over its duration.
func (t *tracer) selfCoverage(root int) float64 {
	r := t.spans[root]
	var children int64
	for _, s := range t.spans[root+1:] {
		if s.Parent == root {
			children += s.EndNs - s.StartNs
		}
	}
	return float64(children) / float64(r.EndNs-r.StartNs)
}

func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// layerSample is what one traced rep measured at each layer boundary.
type layerSample struct {
	wall  time.Duration
	ans   answer
	stats mrf.Stats

	parse, tables, ground, part, mapSearch, mcsat time.Duration
	coverage                                      float64

	evidenceTuples int
	pool           struct{ hits, misses int64 }
	disk           struct{ reads, writes int64 }
	grounding      grounding.Stats
	parts, cut     int
	maxPartBytes   int64
	flips          int64
	samples        int
	memo           search.MemoStats
}

// tracedRep replays the Engine's own sequence for an Auto-mode query
// through the public functions of each layer, one span per call. It must
// produce the Engine path's answer bit for bit; runBatch checks that.
func tracedRep(ctx context.Context, w workload, in input, cfg config, tr *tracer) (layerSample, error) {
	var ls layerSample
	fail := func(op string, err error) (layerSample, error) {
		return ls, fmt.Errorf("%s: traced %s: %w", w.name, op, err)
	}
	tr.rep++
	root := len(tr.spans)
	tr.begin("rep")

	tr.begin("mln.Parse")
	prog, err := mln.ParseProgramString(in.prog)
	if err != nil {
		return fail("ParseProgram", err)
	}
	ev, err := mln.ParseEvidenceString(prog, in.evidence)
	if err != nil {
		return fail("ParseEvidence", err)
	}
	ls.parse = tr.end()
	ls.evidenceTuples = ev.Total()

	tr.begin("db.Open")
	d := db.Open(db.Config{})
	tr.end()

	tr.begin("grounding.BuildTables")
	ts, err := grounding.BuildTables(d, prog, ev)
	if err != nil {
		return fail("BuildTables", err)
	}
	ls.tables = tr.end()

	tr.begin("grounding.NewIncremental")
	_, res, err := grounding.NewIncremental(ctx, ts, grounding.Options{Workers: cfg.par})
	if err != nil {
		return fail("NewIncremental", err)
	}
	ls.ground = tr.end()
	ls.grounding = res.Stats
	ps, dsk := d.Pool().Stats(), d.Disk().Stats()
	ls.pool.hits, ls.pool.misses = ps.Hits, ps.Misses
	ls.disk.reads, ls.disk.writes = dsk.Reads, dsk.Writes

	// Engine.partitionBeta: 20 bytes of search footprint per size unit.
	tr.begin("partition.Algorithm3")
	pt := partition.Algorithm3(res.MRF, int(w.budget/20))
	ls.part = tr.end()
	ls.parts, ls.cut = len(pt.Parts), pt.NumCut()
	for _, p := range pt.Parts {
		ls.maxPartBytes = max(ls.maxPartBytes, p.Bytes())
	}

	base := search.Options{MaxFlips: w.flips, MaxTries: 1, Seed: cfg.seed}
	var sr *search.ComponentResult
	if pt.NumCut() > 0 {
		tr.begin("search.GaussSeidel")
		sr, err = search.GaussSeidel(ctx, pt, search.GaussSeidelOptions{Base: base, Rounds: 3, Parallelism: cfg.par})
	} else {
		comps := make([]*mrf.Component, len(pt.Parts))
		for i, p := range pt.Parts {
			comps[i] = &mrf.Component{MRF: p.Local, GlobalAtom: p.GlobalAtom}
		}
		memo := search.NewComponentMemo(0)
		tr.begin("search.ComponentAware")
		sr, err = search.ComponentAware(ctx, res.MRF, comps, search.ComponentOptions{Base: base, Parallelism: cfg.par, Memo: memo})
		ls.memo = memo.Stats()
	}
	if err != nil {
		return fail("MAP search", err)
	}
	ls.mapSearch = tr.end()
	ls.flips = sr.Flips

	tr.begin("format")
	ah := newAnswerHasher()
	for a := 1; a <= res.MRF.NumAtoms; a++ {
		if sr.Best[a] {
			ah.line(res.MRF.Atoms[a].Format(prog.Syms))
		}
	}
	tr.end()

	if w.samples > 0 {
		mo := search.MCSATOptions{Samples: w.samples, BurnIn: w.samples / 10, Seed: cfg.seed}
		var probs []float64
		if pt.NumCut() > 0 {
			tr.begin("search.GaussMCSAT")
			probs, err = search.GaussMCSAT(ctx, pt, mo, cfg.par)
		} else {
			tr.begin("mrf.Components")
			comps := res.MRF.Components(true)
			ls.part += tr.end()
			if len(comps) > 1 {
				tr.begin("search.MCSATComponents")
				probs, err = search.MCSATComponents(ctx, res.MRF, comps, mo, cfg.par)
			} else {
				tr.begin("search.MCSAT")
				probs, err = search.MCSAT(ctx, res.MRF, mo)
			}
		}
		if err != nil {
			return fail("MC-SAT", err)
		}
		ls.mcsat = tr.end()
		ls.samples = w.samples
		tr.begin("format")
		for a := 1; a <= res.MRF.NumAtoms; a++ {
			ah.prob(res.MRF.Atoms[a].Format(prog.Syms), probs[a])
		}
		tr.end()
	}
	ls.wall = tr.end()
	ls.coverage = tr.selfCoverage(root)
	ls.ans = answer{Cost: sr.BestCost, Flips: sr.Flips, Hash: ah.sum()}
	ls.stats = res.MRF.ComputeStats()
	return ls, nil
}

// fillLayers turns the traced reps into the per-layer metrics. Times are
// medians over the traced reps; counts repeat exactly, so the last rep's
// are reported. untraced is the median untraced rep in seconds, against
// which the tracing overhead is taken.
func fillLayers(rr *runReport, w workload, layers []layerSample, untraced float64) {
	col := func(f func(layerSample) time.Duration) float64 {
		xs := make([]float64, len(layers))
		for i, l := range layers {
			xs[i] = f(l).Seconds()
		}
		return median(xs)
	}
	last := layers[len(layers)-1]
	wall := col(func(l layerSample) time.Duration { return l.wall })
	parse := col(func(l layerSample) time.Duration { return l.parse })
	tables := col(func(l layerSample) time.Duration { return l.tables })
	ground := col(func(l layerSample) time.Duration { return l.ground })
	part := col(func(l layerSample) time.Duration { return l.part })
	mapS := col(func(l layerSample) time.Duration { return l.mapSearch })
	mcsat := col(func(l layerSample) time.Duration { return l.mcsat })
	cov := make([]float64, len(layers))
	for i, l := range layers {
		cov[i] = l.coverage
	}

	rr.layer("parse_s", parse)
	rr.layer("evidence_tuples", float64(last.evidenceTuples))
	rr.layer("pool_hits", float64(last.pool.hits))
	rr.layer("pool_misses", float64(last.pool.misses))
	rr.layer("disk_reads", float64(last.disk.reads))
	rr.layer("disk_writes", float64(last.disk.writes))
	rr.layer("join_rows_visited", float64(last.grounding.JoinRowsVisited))
	rr.layer("tables_s", tables)
	rr.layer("ground_s", ground)
	rr.layer("ground_raw", float64(last.grounding.NumGroundedRaw))
	rr.layer("ground_clauses", float64(last.grounding.NumClauses))
	rr.layer("ground_peak_bytes", float64(last.grounding.PeakBytes))
	rr.layer("partition_s", part)
	rr.layer("parts", float64(last.parts))
	rr.layer("cut_clauses", float64(last.cut))
	rr.layer("max_part_bytes", float64(last.maxPartBytes))
	rr.layer("map_search_s", mapS)
	rr.layer("map_cost", last.ans.Cost)
	rr.layer("flips", float64(last.flips))
	rr.layer("flips_per_s", float64(last.flips)/mapS)
	rr.layer("mcsat_s", mcsat)
	if mcsat > 0 {
		rr.layer("samples_per_s", float64(last.samples)/mcsat)
	}
	rr.layer("memo_hits", float64(last.memo.Hits))
	rr.layer("memo_misses", float64(last.memo.Misses))
	rr.layer("ground_share", 100*(tables+ground)/wall)
	rr.layer("partition_share", 100*part/wall)
	rr.layer("search_share", 100*(mapS+mcsat)/wall)
	rr.layer("span_coverage", 100*median(cov))
	rr.layer("trace_overhead", wall-untraced)
	rr.check("span self-times cover >= 95% of the traced rep", median(cov) >= 0.95,
		fmt.Sprintf("coverage %.4f", median(cov)))
	// The balance each workload exists for, at full size only.
	groundPct, searchPct := 100*(tables+ground)/wall, 100*(part+mapS+mcsat)/wall
	if !rr.Smoke && w.minGround > 0 {
		rr.check(fmt.Sprintf("balance: grounding >= %.0f%% of the traced rep", w.minGround),
			groundPct >= w.minGround, fmt.Sprintf("grounding %.1f%%", groundPct))
	}
	if !rr.Smoke && w.minSearch > 0 {
		rr.check(fmt.Sprintf("balance: partition + search >= %.0f%% of the traced rep", w.minSearch),
			searchPct >= w.minSearch, fmt.Sprintf("partition + search %.1f%%", searchPct))
	}
}
