// Package tuffy is a from-scratch Go implementation of Tuffy (Niu, Ré,
// Doan, Shavlik; VLDB 2011): a Markov Logic Network inference engine that
// grounds MLNs bottom-up inside an embedded relational engine and searches
// in memory, with component detection, MRF partitioning, batch loading,
// parallel component search, Gauss-Seidel partition-aware search and MC-SAT
// marginal inference.
//
// The API splits the pipeline the way the paper does: an Engine owns the
// expensive phase (parsing, evidence load, bottom-up grounding in the
// RDBMS, partitioning); each inference is a per-call query with its own
// options, safe to issue from many goroutines at once over the same
// grounded network.
//
// Quick start:
//
//	prog, _ := tuffy.LoadProgramString(src)
//	ev, _ := tuffy.LoadEvidenceString(prog, evidence)
//	eng, _ := tuffy.Open(prog, ev, tuffy.EngineConfig{})
//	if err := eng.Ground(ctx); err != nil { ... }
//	res, _ := eng.InferMAP(ctx, tuffy.InferOptions{Seed: 1})
//	for _, atom := range res.TrueAtoms { fmt.Println(eng.FormatAtom(atom)) }
//
// Epochs and live evidence: the grounded state is organized as immutable
// epoch snapshots. Ground publishes epoch 0; UpdateEvidence applies an
// mln.Delta (insertions, truth flips, retractions over the existing
// constants), re-runs only the clause grounding queries whose predicates
// the delta touched, repairs the decomposition for the touched connected
// components only, and publishes the result as the next epoch with an
// RCU-style pointer swap. Queries in flight finish bit-identically on the
// epoch they started on; new queries see the new epoch. A failed or
// canceled update rolls the evidence and predicate tables back and keeps
// serving the previous epoch, so the same delta can simply be retried. See
// UpdateEvidence for a worked example.
//
// Concurrent serving: after Ground, any number of goroutines may call
// InferMAP / InferMarginal concurrently with distinct InferOptions; each
// call owns its RNG, tracker and helper tables (collision-free names), and
// every result is bit-identical to the same call run alone. Cancellation:
// every method takes a context; a canceled search returns ErrCanceled
// together with the best result found so far.
//
// For production traffic, Serve wraps one grounded Engine in an
// admission-controlled scheduler: a bounded FIFO queue, per-query
// budget caps with typed rejections, wall-clock deadlines, an epoch-keyed
// result cache whose stale entries are invalidated on evidence updates, and
// metrics. cmd/tuffyd exposes the same layer over HTTP, including POST
// /evidence for live updates.
package tuffy

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"tuffy/internal/db"
	"tuffy/internal/grounding"
	"tuffy/internal/mln"
	"tuffy/internal/mrf"
	"tuffy/internal/partition"
	"tuffy/internal/search"
)

// GrounderKind selects the grounding strategy.
type GrounderKind int

const (
	// BottomUp compiles clauses to SQL over the embedded RDBMS (the
	// paper's contribution, Section 3.1). The default.
	BottomUp GrounderKind = iota
	// TopDown is the Alchemy-style nested-loop baseline.
	TopDown
)

// SearchMode selects where search runs. It is a per-query choice: one
// grounded Engine can serve all three modes.
type SearchMode int

const (
	// Auto uses partitioned in-memory search, falling back to in-database
	// search when a partition exceeds the memory budget.
	Auto SearchMode = iota
	// InMemoryMonolithic is Tuffy-p: one in-memory WalkSAT on the whole
	// MRF (no partitioning).
	InMemoryMonolithic
	// InDatabase is Tuffy-mm: WalkSAT over the RDBMS clause table.
	InDatabase
)

// ErrCanceled is matched (via errors.Is) by the error inference methods
// return when their context is canceled or times out. The accompanying
// result is still valid: it holds the best answer found before the stop.
var ErrCanceled = search.ErrCanceled

// EngineConfig fixes the one-time phase of an Engine: grounding strategy
// and partitioning budget. Everything per-query lives in InferOptions.
// The zero value is the paper's default Tuffy: bottom-up grounding,
// component partitioning, single-threaded grounding.
type EngineConfig struct {
	// Grounder selects the grounding strategy: BottomUp (the paper's
	// SQL-per-clause grounder, the default) or TopDown (the Alchemy-style
	// nested-loop grounder kept for the Table 2 comparison).
	Grounder GrounderKind

	// UseClosure applies the lazy-inference active closure (Appendix A.3)
	// after evidence pruning, dropping clauses outside the closure.
	UseClosure bool

	// MemoryBudgetBytes controls partitioning: 0 keeps whole connected
	// components (Section 3.3); a positive budget further splits components
	// so each partition's search footprint fits (Section 3.4), searched
	// with Gauss-Seidel when clauses are cut.
	MemoryBudgetBytes int64

	// GroundWorkers is the number of concurrent grounding workers for the
	// bottom-up grounder (default 1). The scheduler fans out clause×range
	// tasks: a clause whose optimizer-estimated cost dominates the workload
	// is split into GroundWorkers hash ranges of a join variable, so even a
	// single heavy clause parallelizes. Results are bit-identical for every
	// worker count; see grounding.Options.Workers.
	GroundWorkers int

	// MemoEntries bounds the component-granular result memo shared by every
	// MAP query (0 = default 8192, negative = disabled). The memo keys
	// per-component search outcomes by the component's content, so entries
	// for components an evidence update did not touch survive the epoch
	// swap and are served as bit-identical hits.
	MemoEntries int

	// DB overrides the embedded engine configuration (buffer pool size,
	// optimizer lesion knobs, disk latency injection).
	DB db.Config

	// DataDir enables durable storage: the grounded state is snapshotted
	// after Ground and at checkpoints, and every committed UpdateEvidence is
	// fsynced to a CRC-framed write-ahead log before its epoch is published;
	// the embedded database spills to scratch page files in DataDir/pages.
	// Reopening the same DataDir (with the same program, base evidence and
	// config) warm-starts the engine serving-ready at the exact pre-crash
	// epoch, bit-identical to a never-crashed instance. Empty (the default)
	// keeps everything in memory. See persist.go.
	DataDir string
}

func (c EngineConfig) withDefaults() EngineConfig {
	if c.GroundWorkers == 0 {
		c.GroundWorkers = 1
	}
	return c
}

// InferOptions are the per-query knobs of one InferMAP / InferMarginal
// call. The zero value runs the paper's defaults. Distinct concurrent
// queries may use any mix of options; none of them mutates Engine state.
type InferOptions struct {
	// Mode selects where this query's search runs (Auto by default).
	Mode SearchMode

	// Seed drives the query's deterministic RNG streams.
	Seed int64
	// MaxFlips is the total WalkSAT flip budget (default 1e6).
	MaxFlips int64
	// MaxTries restarts WalkSAT with fresh random states (default 1).
	MaxTries int

	// GaussSeidelRounds is T in the partition-aware scheme (default 3).
	GaussSeidelRounds int
	// Parallelism is the number of search workers for this query (default
	// 1, matching the paper's single-thread experiments). It drives
	// component-aware search, the partitions within one color class of a
	// Gauss-Seidel round, and per-component/partitioned MC-SAT; results
	// are identical for every value.
	Parallelism int

	// Samples is the number of MC-SAT samples for InferMarginal (default
	// 200); ignored by InferMAP.
	Samples int

	// Tracker receives this query's best-cost-over-time samples; may be
	// nil. Each query should use its own Tracker.
	Tracker *search.Tracker
}

func (o InferOptions) withDefaults() InferOptions {
	if o.MaxFlips == 0 {
		o.MaxFlips = 1_000_000
	}
	// The search layer defaults 0 tries to 1; doing it here too keeps the
	// canonical form the serving layer's cache keys rely on (0 and 1 are
	// the same query).
	if o.MaxTries == 0 {
		o.MaxTries = 1
	}
	if o.GaussSeidelRounds == 0 {
		o.GaussSeidelRounds = 3
	}
	if o.Parallelism == 0 {
		o.Parallelism = 1
	}
	if o.Samples == 0 {
		o.Samples = 200
	}
	return o
}

// epoch is one immutable snapshot of the grounded state: the grounding
// result plus every structure derived from it (the decomposition, the
// in-database clause table), each computed lazily at most once per epoch —
// or spliced in pre-repaired by UpdateEvidence. Queries pin an epoch with a
// reference count for their whole run, so an epoch swap never changes what
// an in-flight query sees; when the last query on a retired epoch finishes,
// its clause table is dropped and its pages return to the embedded engine's
// free lists.
type epoch struct {
	gen uint64
	res *grounding.Result
	db  *db.DB

	// mu guards the decomposition. UpdateEvidence pre-seeds it on the next
	// epoch when this epoch has already computed its own (repair is cheaper
	// than recompute); otherwise the first query to need it computes it.
	mu    sync.Mutex
	part  *partition.Partitioning
	comps []*mrf.Component // part.Parts viewed as components, index for index

	clauseOnce  sync.Once
	clauseErr   error
	clauseTable string

	// refs counts pinned users: 1 for being the current epoch, plus one per
	// in-flight query. retire runs when it reaches zero.
	refs    atomic.Int64
	retired sync.Once
}

// release drops one pin; the last release tears the epoch's clause table
// down.
func (ep *epoch) release() {
	if ep.refs.Add(-1) == 0 {
		ep.retired.Do(func() {
			if ep.clauseTable != "" && ep.clauseErr == nil {
				_ = ep.db.DropTable(ep.clauseTable)
			}
		})
	}
}

// decomposition lazily computes (once per epoch) the one decomposition
// every Auto-mode query on this epoch shares: the Algorithm 3
// partitioning and its parts viewed as components. With no cut clause the
// parts are the connected components (Section 3.3), which MAP search and
// marginal sampling both factorize over. Algorithm 3 is deterministic and
// the searches never mutate the parts, so sharing preserves bit-identical
// results.
func (ep *epoch) decomposition(beta int) (*partition.Partitioning, []*mrf.Component) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.part == nil {
		ep.setPartitioning(partition.Algorithm3(ep.res.MRF, beta))
	}
	return ep.part, ep.comps
}

// setPartitioning installs pt with its component view (ep.mu held, or ep
// not yet published).
func (ep *epoch) setPartitioning(pt *partition.Partitioning) {
	views := make([]mrf.Component, len(pt.Parts))
	ep.comps = make([]*mrf.Component, len(pt.Parts))
	for i, p := range pt.Parts {
		views[i] = mrf.Component{MRF: p.Local, GlobalAtom: p.GlobalAtom}
		ep.comps[i] = &views[i]
	}
	ep.part = pt
}

// decomposed returns the epoch's partitioning, nil while no query has
// needed it.
func (ep *epoch) decomposed() *partition.Partitioning {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.part
}

// ensureClauseTable stores the epoch's MRF into its read-only clause table
// for InDatabase queries (once; concurrent queries share it).
func (ep *epoch) ensureClauseTable() (string, error) {
	ep.clauseOnce.Do(func() {
		ep.clauseTable = fmt.Sprintf("mrf_clauses_e%d", ep.gen)
		ep.clauseErr = mrf.Store(ep.res.MRF, ep.db, ep.clauseTable)
	})
	return ep.clauseTable, ep.clauseErr
}

// Engine owns one program, its evidence and the grounded network as a
// sequence of immutable epoch snapshots. Ground publishes the first epoch;
// UpdateEvidence publishes subsequent ones. InferMAP / InferMarginal may be
// called from any number of goroutines concurrently, including while an
// update is in flight: each query runs entirely on the epoch that was
// current when it started.
type Engine struct {
	cfg  EngineConfig
	prog *mln.Program
	ev   *mln.Evidence
	db   *db.DB

	// groundMu serializes Ground and UpdateEvidence (single-writer). The
	// predicate tables and the incremental grounding cache are only touched
	// under it; queries never need it once an epoch exists.
	groundMu   sync.Mutex
	tables     *grounding.TableSet
	inc        *grounding.Incremental // BottomUp only; drives UpdateEvidence
	groundTime time.Duration
	broken     error // rollback failure latch: state inconsistent for updates

	// cur is the published epoch (nil before the first Ground succeeds);
	// swapped RCU-style by UpdateEvidence.
	cur atomic.Pointer[epoch]

	// memo is the cross-epoch component-granular result cache (nil when
	// disabled). Content-keyed, so no epoch swap ever invalidates a still-
	// correct entry.
	memo *search.ComponentMemo

	updating       atomic.Bool
	updatesApplied atomic.Uint64

	// dur is the durable-storage layer (nil without EngineConfig.DataDir);
	// its mutable state is guarded by groundMu. See persist.go.
	dur *durability
}

// Open creates an Engine over a parsed program and its evidence. Call
// Ground next (or InferMAP / InferMarginal, which ground on demand).
//
// With EngineConfig.DataDir set, Open also opens (or creates) the durable
// store: if the directory holds a snapshot written under the same program,
// base evidence and config, the engine warm-starts — it comes back
// serving-ready at the exact epoch the previous process last committed,
// replaying any evidence deltas the write-ahead log holds past the
// snapshot, without re-running grounding. A mismatched snapshot (different
// program or base evidence) is an error, never a silent cold start. Call
// Close when done to checkpoint and release the files.
func Open(prog *mln.Program, ev *mln.Evidence, cfg EngineConfig) (*Engine, error) {
	cfg = cfg.withDefaults()
	e := &Engine{cfg: cfg, prog: prog, ev: ev}
	if cfg.MemoEntries >= 0 {
		e.memo = search.NewComponentMemo(cfg.MemoEntries)
	}
	if cfg.DataDir == "" {
		e.db = db.Open(cfg.DB)
		return e, nil
	}
	if err := e.openDurable(); err != nil {
		return nil, err
	}
	return e, nil
}

// LoadProgram parses an MLN program.
func LoadProgram(r io.Reader) (*mln.Program, error) { return mln.ParseProgram(r) }

// LoadProgramString parses an MLN program from a string.
func LoadProgramString(s string) (*mln.Program, error) { return mln.ParseProgramString(s) }

// LoadEvidence parses evidence for a program.
func LoadEvidence(prog *mln.Program, r io.Reader) (*mln.Evidence, error) {
	return mln.ParseEvidence(prog, r)
}

// LoadEvidenceString parses evidence from a string.
func LoadEvidenceString(prog *mln.Program, s string) (*mln.Evidence, error) {
	return mln.ParseEvidenceString(prog, s)
}

// DB exposes the embedded relational engine (for experiments and stats).
func (e *Engine) DB() *db.DB { return e.db }

// Prog returns the program the engine serves.
func (e *Engine) Prog() *mln.Program { return e.prog }

// Ev returns the evidence the engine was opened with.
func (e *Engine) Ev() *mln.Evidence { return e.ev }

// Tables returns the predicate tables built by Ground (nil before). Safe
// to call concurrently with an in-flight Ground.
func (e *Engine) Tables() *grounding.TableSet {
	e.groundMu.Lock()
	defer e.groundMu.Unlock()
	return e.tables
}

// Grounded returns the current epoch's grounding result (nil before
// Ground). Safe to call concurrently with in-flight grounds and updates.
func (e *Engine) Grounded() *grounding.Result {
	if ep := e.cur.Load(); ep != nil {
		return ep.res
	}
	return nil
}

// GroundTime reports how long the initial grounding phase took.
func (e *Engine) GroundTime() time.Duration {
	e.groundMu.Lock()
	defer e.groundMu.Unlock()
	return e.groundTime
}

// Generation returns the current epoch number: 0 after Ground, incremented
// by every UpdateEvidence that changed the grounded network.
func (e *Engine) Generation() uint64 {
	if ep := e.cur.Load(); ep != nil {
		return ep.gen
	}
	return 0
}

// Updating reports whether an UpdateEvidence is re-grounding right now.
// Queries remain fully served (on the current epoch) while it is true.
func (e *Engine) Updating() bool { return e.updating.Load() }

// UpdatesApplied counts successful UpdateEvidence calls (including logical
// no-ops that did not publish a new epoch).
func (e *Engine) UpdatesApplied() uint64 { return e.updatesApplied.Load() }

// MemoStats snapshots the component-granular result memo (zero value when
// the memo is disabled).
func (e *Engine) MemoStats() search.MemoStats {
	if e.memo == nil {
		return search.MemoStats{}
	}
	return e.memo.Stats()
}

// Ground builds the predicate tables, runs the configured grounder and
// publishes epoch 0. Concurrent and repeated calls share one successful
// grounding run. A failed (or canceled) Ground tears its half-built
// predicate tables down and leaves the Engine un-grounded, so it can be
// re-Grounded in place — a canceled Ground followed by a retry behaves
// like a first Ground.
func (e *Engine) Ground(ctx context.Context) error {
	e.groundMu.Lock()
	defer e.groundMu.Unlock()
	if e.cur.Load() != nil {
		return nil
	}
	return e.ground(ctx)
}

func (e *Engine) ground(ctx context.Context) error {
	// Grounding is retryable in place, so a dead context must not pay for a
	// full table build it would immediately tear down — retries under a
	// too-short deadline would repeat that cycle every attempt.
	if ctx.Err() != nil {
		return search.Canceled(ctx)
	}
	start := time.Now()
	ts, err := grounding.BuildTables(e.db, e.prog, e.ev)
	if err != nil {
		return err
	}
	e.tables = ts
	opts := grounding.Options{
		UseClosure: e.cfg.UseClosure,
		Workers:    e.cfg.GroundWorkers,
	}
	var res *grounding.Result
	switch e.cfg.Grounder {
	case TopDown:
		res, err = grounding.GroundTopDown(ctx, ts, opts)
	default:
		// The bottom-up grounder runs through the incremental wrapper,
		// which retains each clause's raw groundings — the cache that lets
		// UpdateEvidence re-run only the touched clauses later.
		e.inc, res, err = grounding.NewIncremental(ctx, ts, opts)
	}
	if err != nil {
		// Tear the predicate tables down so a retry rebuilds them from a
		// clean catalog (their pages return to the engine's free lists).
		ts.Drop()
		e.tables = nil
		e.inc = nil
		// Wrap only genuine cancellations (the grounders return the
		// context's cause when they stop); a real grounding failure that
		// merely coincides with an expired deadline keeps its own error.
		if ctx.Err() != nil && errors.Is(err, context.Cause(ctx)) {
			return search.Canceled(ctx)
		}
		return err
	}
	e.groundTime = time.Since(start)
	if e.dur != nil && e.inc != nil {
		// The durability baseline: updates fsync only their deltas, so a
		// snapshot of the grounded state must exist before any update is
		// acknowledged. Writing it before the epoch is published keeps
		// Ground's failure contract — on error the engine is un-grounded
		// and retryable, and a crash mid-checkpoint reopens cold.
		if err := e.checkpointLocked(); err != nil {
			ts.Drop()
			e.tables = nil
			e.inc = nil
			return fmt.Errorf("tuffy: durable checkpoint after grounding: %w", err)
		}
	}
	ep := &epoch{gen: 0, res: res, db: e.db}
	ep.refs.Store(1)
	e.cur.Store(ep)
	return nil
}

// acquire pins the current epoch for one query, grounding on demand if no
// epoch exists yet. The release closure must be called when the query is
// done. The load-increment-recheck loop closes the race with a concurrent
// epoch swap: if the epoch stopped being current between the load and the
// pin, the pin may have landed on an already-retired snapshot, so it is
// dropped and the new epoch is pinned instead.
func (e *Engine) acquire(ctx context.Context) (*epoch, func(), error) {
	for {
		ep := e.cur.Load()
		if ep == nil {
			if err := e.Ground(ctx); err != nil {
				return nil, nil, err
			}
			continue
		}
		ep.refs.Add(1)
		if e.cur.Load() == ep {
			return ep, ep.release, nil
		}
		ep.release()
	}
}

// partitionBeta converts the memory budget to Algorithm 3's size-unit
// bound (SearchBytes ≈ 20 bytes per size unit, i.e. per atom or literal);
// 0 means no budget, which keeps whole connected components.
func (e *Engine) partitionBeta() int {
	if e.cfg.MemoryBudgetBytes <= 0 {
		return 0
	}
	return int(e.cfg.MemoryBudgetBytes / 20)
}

// cutParts is the part count of the current epoch's decomposition when it
// cuts clauses, so that Auto MAP runs Gauss-Seidel over the parts, and 0
// when it cuts none (without a memory budget it never does). The engine
// must be grounded.
func (e *Engine) cutParts() int64 {
	if e.partitionBeta() == 0 {
		return 0
	}
	if pt, _ := e.cur.Load().decomposition(e.partitionBeta()); pt.NumCut() > 0 {
		return int64(len(pt.Parts))
	}
	return 0
}

// MAPResult is the outcome of MAP inference.
type MAPResult struct {
	// Cost of the best world found (Eq. 1; +Inf if hard clauses could not
	// all be satisfied).
	Cost float64
	// TrueAtoms are the query atoms inferred true (excluding evidence).
	TrueAtoms []mln.GroundAtom
	// State is the raw best assignment over the MRF atoms.
	State []bool
	// Flips performed during search.
	Flips int64
	// GroundTime and SearchTime break down the run.
	GroundTime time.Duration
	SearchTime time.Duration
	// Partitions and CutClauses describe the partitioning used (0/0 when
	// monolithic).
	Partitions int
	CutClauses int
	// InDBComponents counts components that exceeded the memory budget and
	// were searched inside the RDBMS (the hybrid fallback of Section 3.2).
	InDBComponents int
	// Epoch is the engine epoch this answer was computed on. An in-flight
	// query keeps its epoch across a concurrent evidence update, so Epoch
	// may lag Engine.Generation by the time the caller reads it.
	Epoch uint64
}

// InferMAP runs one MAP query: grounding (if not already done), then
// search per the per-call options. Safe for concurrent use: any number of
// goroutines may query one grounded Engine at once, and each result is
// bit-identical to the same query run alone.
//
// If ctx is canceled mid-search, InferMAP returns the best result found so
// far together with an error matching ErrCanceled.
func (e *Engine) InferMAP(ctx context.Context, opts InferOptions) (*MAPResult, error) {
	opts = opts.withDefaults()
	ep, release, err := e.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	m := ep.res.MRF
	res := &MAPResult{GroundTime: e.GroundTime(), Epoch: ep.gen}
	searchStart := time.Now()

	base := search.Options{
		MaxFlips: opts.MaxFlips,
		MaxTries: opts.MaxTries,
		Seed:     opts.Seed,
		Tracker:  opts.Tracker,
	}

	finish := func(err error) (*MAPResult, error) {
		res.SearchTime = time.Since(searchStart)
		res.TrueAtoms = trueAtoms(m, res.State)
		return res, err
	}

	switch opts.Mode {
	case InDatabase:
		table, err := ep.ensureClauseTable()
		if err != nil {
			return nil, err
		}
		r, err := search.RDBMSWalkSAT(ctx, e.db, table, m.NumAtoms, base)
		if err != nil && !errors.Is(err, ErrCanceled) {
			return nil, err
		}
		if r == nil { // canceled before the search state was built
			res.Cost = math.Inf(1)
			return finish(err)
		}
		res.Cost = r.BestCost
		res.State = r.Best
		res.Flips = r.Flips
		return finish(err)

	case InMemoryMonolithic:
		r, err := search.Monolithic(ctx, m, base)
		res.Cost = r.BestCost
		res.State = r.Best
		res.Flips = r.Flips
		return finish(err)

	default: // Auto: partitioned
		pt, comps := ep.decomposition(e.partitionBeta())
		res.Partitions = len(pt.Parts)
		res.CutClauses = pt.NumCut()
		if pt.NumCut() > 0 {
			r, err := search.GaussSeidel(ctx, pt, search.GaussSeidelOptions{
				Base:        base,
				Rounds:      opts.GaussSeidelRounds,
				Parallelism: opts.Parallelism,
			})
			if err != nil && !errors.Is(err, ErrCanceled) {
				return nil, err
			}
			res.Cost = r.BestCost
			res.State = r.Best
			res.Flips = r.Flips
			return finish(err)
		}
		// Hybrid fallback (Section 3.2): components whose search footprint
		// exceeds the memory budget are searched inside the RDBMS
		// (Tuffy-mm); the rest run in memory.
		inMem, oversized := e.splitParts(pt, comps)
		r, err := search.ComponentAware(ctx, m, inMem, search.ComponentOptions{
			Base:        base,
			Parallelism: opts.Parallelism,
			Memo:        e.memo,
		})
		res.Cost = r.BestCost
		res.State = r.Best
		res.Flips = r.Flips
		if err != nil {
			return finish(err)
		}
		// In-DB flips are orders of magnitude slower, so oversized
		// components get 1% of the budget — clamped to at least one flip so
		// they still search when the total budget is tiny.
		inDBFlips := search.ClampFlips(base.MaxFlips/100, 0)
		for i, p := range oversized {
			if ctx.Err() != nil {
				return finish(search.Canceled(ctx))
			}
			// Per-query table name: concurrent queries must not collide in
			// the catalog; dropping the table afterwards returns its pages
			// to the engine's free list.
			table := mrf.QueryTableName("mrf_part")
			if err := mrf.Store(p.Local, e.db, table); err != nil {
				return nil, err
			}
			rp, rerr := search.RDBMSWalkSAT(ctx, e.db, table, p.Local.NumAtoms, search.Options{
				MaxFlips: inDBFlips,
				Seed:     base.Seed + int64(i),
			})
			if derr := e.db.DropTable(table); derr != nil && rerr == nil {
				rerr = derr
			}
			if rerr != nil && !errors.Is(rerr, ErrCanceled) {
				return nil, rerr
			}
			if rp != nil && rp.Best != nil {
				p.ProjectState(rp.Best, res.State)
				res.Cost += rp.BestCost
				res.Flips += rp.Flips
				res.InDBComponents++
			}
			if rerr != nil {
				return finish(rerr)
			}
		}
		return finish(nil)
	}
}

// splitParts sets aside, from a cut-free decomposition's components, the
// parts whose search footprint exceeds the memory budget; the rest are the
// components in-memory search runs over — without a budget, the epoch's
// own list.
func (e *Engine) splitParts(pt *partition.Partitioning, comps []*mrf.Component) (inMem []*mrf.Component, oversized []*partition.Part) {
	if e.cfg.MemoryBudgetBytes <= 0 {
		return comps, nil
	}
	for i, p := range pt.Parts {
		if p.Bytes() > e.cfg.MemoryBudgetBytes {
			oversized = append(oversized, p)
			continue
		}
		inMem = append(inMem, comps[i])
	}
	return inMem, oversized
}

// trueAtoms maps the best state back to ground atoms inferred true.
func trueAtoms(m *mrf.MRF, state []bool) []mln.GroundAtom {
	if state == nil {
		return nil
	}
	var out []mln.GroundAtom
	for a := 1; a <= m.NumAtoms && a < len(state); a++ {
		if state[a] && m.Atoms != nil {
			out = append(out, m.Atoms[a])
		}
	}
	return out
}

// MarginalResult reports per-atom marginal probabilities.
type MarginalResult struct {
	// Probs[i] pairs a query atom with its estimated Pr[atom = true].
	Probs []AtomProb
	// Epoch is the engine epoch this answer was computed on (see
	// MAPResult.Epoch).
	Epoch uint64
}

// AtomProb is one atom's marginal.
type AtomProb struct {
	Atom mln.GroundAtom
	P    float64
}

// InferMarginal runs one marginal-inference query with MC-SAT (Appendix
// A.5), using opts.Samples sampling rounds. In Auto mode it samples the
// epoch's one decomposition — the parts InferMAP searches — component by
// component; the other modes sample the whole network. Like InferMAP it is
// safe for concurrent use over one grounded Engine, and a canceled context
// returns the marginals estimated so far together with an error matching
// ErrCanceled.
func (e *Engine) InferMarginal(ctx context.Context, opts InferOptions) (*MarginalResult, error) {
	opts = opts.withDefaults()
	ep, release, err := e.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	m := ep.res.MRF
	mo := mcsatOptions(opts.Samples, opts.Seed)
	// The distribution factorizes over connected components, so Auto mode
	// samples each independently (and in parallel) over the decomposition
	// MAP searches — the marginal-inference counterpart of component-aware
	// MAP search. With a memory budget that cuts clauses, the partitioned
	// Gauss-Seidel MC-SAT path samples partitions color class by color
	// class instead. The other modes sample the whole network and never
	// build the decomposition.
	var probs []float64
	if opts.Mode != Auto {
		probs, err = search.MCSAT(ctx, m, mo)
	} else if pt, comps := ep.decomposition(e.partitionBeta()); pt.NumCut() > 0 {
		probs, err = search.GaussMCSAT(ctx, pt, mo, opts.Parallelism)
	} else if len(comps) > 1 {
		probs, err = search.MCSATComponents(ctx, m, comps, mo, opts.Parallelism)
	} else {
		probs, err = search.MCSAT(ctx, m, mo)
	}
	if err != nil && !errors.Is(err, ErrCanceled) {
		return nil, err
	}
	// probs is indexed by MRF atom id, and nil when sampling was canceled
	// before it produced one.
	out := &MarginalResult{Epoch: ep.gen}
	if probs != nil {
		for a := 1; a <= m.NumAtoms; a++ {
			out.Probs = append(out.Probs, AtomProb{Atom: m.Atoms[a], P: probs[a]})
		}
	}
	return out, err
}

// mcsatOptions derives MC-SAT's options from a query's canonical ones.
func mcsatOptions(samples int, seed int64) search.MCSATOptions {
	return search.MCSATOptions{Samples: samples, BurnIn: samples / 10, Seed: seed}
}

// FormatAtom renders a ground atom with the engine's symbol table.
func (e *Engine) FormatAtom(a mln.GroundAtom) string { return a.Format(e.prog.Syms) }

// Stats exposes grounding statistics for the current epoch after Ground.
func (e *Engine) Stats() (grounding.Stats, error) {
	res := e.Grounded()
	if res == nil {
		return grounding.Stats{}, fmt.Errorf("tuffy: not grounded yet")
	}
	return res.Stats, nil
}

// MRFStats exposes the current epoch's grounded-network size accounting.
func (e *Engine) MRFStats() (mrf.Stats, error) {
	res := e.Grounded()
	if res == nil {
		return mrf.Stats{}, fmt.Errorf("tuffy: not grounded yet")
	}
	return res.MRF.ComputeStats(), nil
}
