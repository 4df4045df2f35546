package search

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tuffy/internal/mrf"
	"tuffy/internal/partition"
)

// GaussSeidelOptions configures partition-aware search (Section 3.4).
type GaussSeidelOptions struct {
	// Base WalkSAT options; MaxFlips is the per-partition budget per round.
	Base Options
	// Rounds is T in the paper's scheme: how many sweeps over the
	// partitions to run.
	Rounds int
	// Parallelism is the number of concurrent partition searches (1 =
	// sequential). Partitions that share a cut clause are never run
	// together, and results merge in one canonical order, so the result is
	// bit-identical for every value.
	Parallelism int
	// ClassBarrier forces the legacy lock-step schedule: one color class at
	// a time with a full barrier between classes. The default (false) is
	// the balanced pipelined schedule, which starts a partition as soon as
	// its cut neighbours' merges allow and dispatches ready partitions
	// largest-first, so one oversized partition no longer serializes its
	// whole class. Both schedules produce bit-identical results; the
	// barrier is kept as the plainly sequential reference schedule for
	// tests (TestGaussSeidelBalancedMatchesBarrier).
	ClassBarrier bool
}

// gsCut is one cut clause as seen from one partition: the literals over the
// partition's local atom ids plus the external literals that are evaluated
// against the frozen global assignment. Precomputed once, used every round.
type gsCut struct {
	ci     int // index into Partitioning.Cut
	weight float64
	local  []mrf.Lit
	ext    []mrf.Lit // global-id literals outside the partition
}

// gsPart is the per-partition state hoisted out of the round loop: the cut
// projection templates, the pooled sub-MRF (its first nInternal clauses are
// the partition's own), and the slots the class workers write their
// results into.
type gsPart struct {
	part      *partition.Part
	nInternal int
	cuts      []gsCut
	sub       *mrf.MRF
	initBuf   []bool // local state extracted from global before the run
	best      []bool // WalkSAT result (local ids)
	flips     int64
}

// classWorkers runs the partitions of one color class at a time on workers
// started once per query. Each worker keeps one Scratch for every partition
// it takes, in every class of every round, so a sweep allocates its search
// arrays and RNG once per worker rather than once per class visit. fn must
// write only its own partition's state (it may read shared frozen state),
// which is what color classes guarantee. Shared by the class-barrier MAP
// sweep and the MC-SAT sweep; stop must run when the sweep ends.
type classWorkers struct {
	fn   func(pi int, sc *Scratch)
	sc   Scratch        // the lone worker's, when the caller's goroutine is it
	work chan int       // nil with one worker
	busy sync.WaitGroup // the running class's partitions
	live sync.WaitGroup // the worker goroutines
}

// newClassWorkers starts up to workers goroutines, no more than the largest
// class in classes can keep busy.
func newClassWorkers(classes [][]int, workers int, fn func(pi int, sc *Scratch)) *classWorkers {
	widest := 0
	for _, class := range classes {
		widest = max(widest, len(class))
	}
	cw := &classWorkers{fn: fn}
	if workers = min(workers, widest); workers <= 1 {
		return cw
	}
	cw.work = make(chan int)
	cw.live.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer cw.live.Done()
			var sc Scratch // this worker's, for every run it takes
			for pi := range cw.work {
				cw.fn(pi, &sc)
				cw.busy.Done()
			}
		}()
	}
	return cw
}

// run executes fn for every partition index in class, returning after all
// complete.
func (cw *classWorkers) run(class []int) {
	if cw.work == nil {
		for _, pi := range class {
			cw.fn(pi, &cw.sc)
		}
		return
	}
	cw.busy.Add(len(class))
	for _, pi := range class {
		cw.work <- pi
	}
	cw.busy.Wait()
}

// stop ends the workers and returns once they have exited.
func (cw *classWorkers) stop() {
	if cw.work != nil {
		close(cw.work)
		cw.live.Wait()
	}
}

// GaussSeidel runs the paper's partition-aware search: for t = 1..T, for
// each partition i, run WalkSAT on partition i conditioned on the current
// values of all other partitions (cut clauses are projected onto the
// partition under the frozen external assignment) — an instance of the
// Gauss-Seidel method from nonlinear optimization [Bertsekas & Tsitsiklis].
//
// Rounds are scheduled over the colored partition interaction graph:
// partitions sharing a cut clause never run together, and every partition
// starts only once the merges its frozen inputs depend on have landed
// (Jacobi within a color, Gauss-Seidel across colors — see
// partition.BuildSchedule for the exact dependency rule). Results merge
// into the global state in one canonical order — classes ascending,
// partition index ascending within a class, rounds in order — and the
// global cost is updated incrementally from only the touched clauses, so
// the best state, best cost and tracker trajectory are identical for every
// Parallelism value and for both schedules (balanced and ClassBarrier).
// The balanced default pipelines across class and round boundaries with
// largest-first dispatch, so a class's one huge partition overlaps the
// rest of the sweep instead of serializing it.
//
// A canceled context stops dispatching partition runs (partitions mid-run
// stop early themselves and their best-so-far is merged), returning
// ErrCanceled with the best global state found before the stop. GaussSeidel
// never mutates pt, so one Partitioning can serve concurrent searches.
func GaussSeidel(ctx context.Context, pt *partition.Partitioning, opts GaussSeidelOptions) (*ComponentResult, error) {
	opts.Base = opts.Base.withDefaults()
	if opts.Rounds == 0 {
		opts.Rounds = 3
	}
	if opts.Parallelism < 1 {
		opts.Parallelism = 1
	}
	start := time.Now()
	m := pt.Source
	global := m.NewState()

	// Index cut clauses by partition for projection.
	cutByPart := make([][]int, len(pt.Parts))
	for ci, c := range pt.Cut {
		seen := map[int32]bool{}
		for _, l := range c.Lits {
			pi := pt.PartOf[mrf.Atom(l)]
			if !seen[pi] {
				seen[pi] = true
				cutByPart[pi] = append(cutByPart[pi], ci)
			}
		}
	}

	// Hoisted per-partition setup: local-id translation of every adjacent
	// cut clause, pooled clause buffers and state buffers. localOf is a
	// scratch array reused (and re-zeroed) per partition.
	parts := make([]*gsPart, len(pt.Parts))
	localOf := make([]mrf.AtomID, m.NumAtoms+1)
	for pi, part := range pt.Parts {
		g := &gsPart{part: part}
		for i := 1; i <= part.Local.NumAtoms; i++ {
			localOf[part.GlobalAtom[i]] = mrf.AtomID(i)
		}
		for _, ci := range cutByPart[pi] {
			c := pt.Cut[ci]
			cc := gsCut{ci: ci, weight: c.Weight}
			for _, l := range c.Lits {
				a := mrf.Atom(l)
				if ll := localOf[a]; ll != 0 {
					if !mrf.Pos(l) {
						ll = -ll
					}
					cc.local = append(cc.local, ll)
				} else {
					cc.ext = append(cc.ext, l)
				}
			}
			g.cuts = append(g.cuts, cc)
		}
		for i := 1; i <= part.Local.NumAtoms; i++ {
			localOf[part.GlobalAtom[i]] = 0
		}
		g.sub = part.Local.Compact()
		g.nInternal = part.Local.NumClauses()
		g.initBuf = make([]bool, part.Local.NumAtoms+1)
		parts[pi] = g
	}

	sched := pt.BuildSchedule()

	// Incremental global cost: violated-hard count plus soft cost, seeded
	// with one full scan of the initial state and updated per merge from
	// only the merged partition's internal and adjacent cut clauses.
	hardViol := 0
	softCost := 0.0
	for ci, w := range m.W {
		if m.ViolatedBy(ci, global) {
			if m.IsHard(ci) {
				hardViol++
			} else {
				softCost += math.Abs(w)
			}
		}
	}
	currentCost := func() float64 {
		if hardViol > 0 {
			return math.Inf(1)
		}
		return softCost + m.FixedCost
	}

	var flips int64
	best := m.NewState()
	bestCost := math.Inf(1)
	record := func() {
		if c := currentCost(); c < bestCost {
			bestCost = c
			copy(best, global)
			if opts.Base.Tracker != nil {
				opts.Base.Tracker.Record(bestCost)
			}
		}
	}
	record()

	// runPart searches one partition under the frozen global assignment,
	// writing results only into its own gsPart slots — safe to run
	// concurrently with any other partition of the same color class. The
	// conditioned sub-MRF's clause set changes every visit, so its index is
	// rebuilt into the worker's scratch rather than shared.
	runPart := func(round, pi int, sc *Scratch) {
		g := parts[pi]
		if ctx.Err() != nil {
			return // g.best stays nil and merge skips
		}
		g.sub.Truncate(g.nInternal)
		fixed := 0.0
		for _, cc := range g.cuts {
			satisfiedOutside := false
			for _, l := range cc.ext {
				if global[mrf.Atom(l)] == mrf.Pos(l) {
					satisfiedOutside = true
					break
				}
			}
			if satisfiedOutside {
				if cc.weight < 0 {
					fixed += -cc.weight // satisfied negative clause: constant cost
				}
				continue
			}
			if len(cc.local) == 0 {
				if cc.weight > 0 && !math.IsInf(cc.weight, 1) {
					fixed += cc.weight
				}
				continue
			}
			g.sub.Append(cc.weight, cc.local)
		}
		g.sub.FixedCost = fixed

		for i := 1; i <= g.part.Local.NumAtoms; i++ {
			g.initBuf[i] = global[g.part.GlobalAtom[i]]
		}
		o := opts.Base
		o.Seed = opts.Base.Seed + int64(round)*31337 + int64(pi)*7919
		o.InitState = g.initBuf
		o.MaxTries = 1
		o.Tracker = nil // per-partition costs are not global costs
		r := walkSAT(ctx, g.sub, sc.index(g.sub), o, sc)
		g.best = r.Best // nil if canceled before the init state was recorded
		g.flips = r.Flips
	}

	// merge folds one partition's result into the global state and updates
	// the cost from the touched clauses only. Called in ascending partition
	// order after a class's barrier, so it is single-threaded.
	merge := func(pi int) {
		g := parts[pi]
		if g.best == nil {
			return // partition never ran (canceled); global state unchanged
		}
		account := func(violated bool, hard bool, w float64, sign int) {
			if !violated {
				return
			}
			if hard {
				hardViol += sign
			} else {
				softCost += float64(sign) * math.Abs(w)
			}
		}
		local := g.part.Local
		for ci, w := range local.W {
			account(local.ViolatedBy(ci, g.initBuf), local.IsHard(ci), w, -1)
			account(local.ViolatedBy(ci, g.best), local.IsHard(ci), w, +1)
		}
		for _, cc := range g.cuts {
			c := pt.Cut[cc.ci]
			account(c.ViolatedBy(global), c.IsHard(), c.Weight, -1)
		}
		g.part.ProjectState(g.best, global)
		for _, cc := range g.cuts {
			c := pt.Cut[cc.ci]
			account(c.ViolatedBy(global), c.IsHard(), c.Weight, +1)
		}
		flips += g.flips
		record()
	}

	result := func() *ComponentResult {
		return &ComponentResult{
			Best:     best,
			BestCost: bestCost,
			Flips:    flips,
			Elapsed:  time.Since(start),
		}
	}
	if opts.ClassBarrier {
		var round int
		cw := newClassWorkers(sched.Classes, opts.Parallelism, func(pi int, sc *Scratch) { runPart(round, pi, sc) })
		defer cw.stop()
		for ; round < opts.Rounds; round++ {
			for _, class := range sched.Classes {
				cw.run(class)
				for _, pi := range class {
					merge(pi)
					parts[pi].best = nil // consumed; do not re-merge next round
				}
				if ctx.Err() != nil {
					return result(), Canceled(ctx)
				}
			}
		}
		return result(), nil
	}

	runPipelined(ctx, sched, opts.Rounds, opts.Parallelism, runPart, func(pi int) {
		merge(pi)
		parts[pi].best = nil // consumed; do not re-merge next round
	})
	if ctx.Err() != nil {
		return result(), Canceled(ctx)
	}
	return result(), nil
}

// runPipelined executes rounds*P partition runs on up to workers goroutines
// under the balanced schedule: job (round, pi) is dispatched once the
// merges its frozen inputs depend on have landed, ready jobs go out
// largest-first (LPT), and mergeFn is invoked in the canonical sequence —
// Schedule.Order within a round, rounds in order — on the caller's
// goroutine only. The dependency rule (see partition.BuildSchedule)
// guarantees each run reads exactly the global state the sequential sweep
// would give it while non-neighbouring merges proceed concurrently, so
// results are bit-identical to the class-barrier schedule for every worker
// count. Cancellation stops the pipeline after in-flight runs drain (runs
// not yet started are skipped).
func runPipelined(ctx context.Context, sched *partition.Schedule, rounds, workers int, runFn func(round, pi int, sc *Scratch), mergeFn func(pi int)) {
	p := len(sched.Order)
	if workers > p {
		workers = p
	}
	if workers < 1 {
		workers = 1
	}
	total := rounds * p

	// Merges of round t only release runs of rounds t and t+1, and merges
	// land strictly in round order at the canonical head, so the live
	// dependency state never spans more than two adjacent rounds. A rolling
	// two-round window (indexed by round parity) keeps memory and channel
	// buffers O(p) however many rounds the sweep runs.
	//
	// deps[t%2][pi] = merges that must land before run (t, pi) may start:
	// first round, the smaller-colored neighbours' same-round merges; later
	// rounds, additionally the partition's own and every remaining
	// neighbour's previous-round merge.
	var deps [2][]int
	runFlag := [2][]bool{make([]bool, p), make([]bool, p)}
	deps[0] = make([]int, p)
	deps[1] = make([]int, p)
	initRound := func(t int) {
		w := t % 2
		for pi := 0; pi < p; pi++ {
			if t == 0 {
				deps[w][pi] = sched.EarlierDeps(pi)
			} else {
				deps[w][pi] = 1 + len(sched.Neighbors[pi])
			}
			runFlag[w][pi] = false
		}
	}
	initRound(0)
	if rounds > 1 {
		initRound(1)
	}

	// At most the two window rounds' jobs are ever dispatched and
	// unmerged, so 2p-buffered channels never block either side.
	work := make(chan int, 2*p)
	done := make(chan int, 2*p)
	var abort atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc Scratch // this worker's, for every run it takes
			for j := range work {
				if !abort.Load() {
					runFn(j/p, j%p, &sc)
				}
				done <- j
			}
		}()
	}
	defer func() {
		close(work)
		wg.Wait()
	}()

	// dispatch releases a batch of ready jobs, heaviest partition first so
	// an oversized partition starts the moment its dependencies clear
	// (ties break on job order for determinism of the dispatch sequence;
	// results do not depend on it).
	dispatch := func(ready []int) {
		sort.Slice(ready, func(a, b int) bool {
			wa, wb := sched.Weight[ready[a]%p], sched.Weight[ready[b]%p]
			if wa != wb {
				return wa > wb
			}
			return ready[a] < ready[b]
		})
		for _, j := range ready {
			work <- j
		}
	}
	initial := make([]int, 0, p)
	for pi := 0; pi < p; pi++ {
		if deps[0][pi] == 0 {
			initial = append(initial, pi)
		}
	}
	dispatch(initial)

	merged, head := 0, 0 // head indexes the canonical merge sequence
	for merged < total {
		j := <-done
		if ctx.Err() != nil {
			// Cancellation stops dispatching: in-flight runs observe ctx
			// themselves and return promptly; queued ones are skipped via
			// abort. The caller reports the globals merged so far.
			abort.Store(true)
			return
		}
		runFlag[(j/p)%2][j%p] = true
		var released []int
		for head < total {
			t := head / p
			pi := sched.Order[head%p]
			if !runFlag[t%2][pi] {
				break
			}
			mergeFn(pi)
			merged++
			head++
			// The landed merge satisfies one dependency of each job that
			// waits on it.
			release := func(dj int) {
				w := (dj / p) % 2
				deps[w][dj%p]--
				if deps[w][dj%p] == 0 {
					released = append(released, dj)
				}
			}
			for _, q := range sched.Neighbors[pi] {
				if sched.Color[q] > sched.Color[pi] {
					release(t*p + int(q))
				} else if t+1 < rounds {
					release((t+1)*p + int(q))
				}
			}
			if t+1 < rounds {
				release((t+1)*p + pi)
			}
			if head%p == 0 && t+2 < rounds {
				// Round t is fully merged; recycle its window slot for
				// round t+2, whose first releases come from round t+1's
				// merges (all still ahead of the head).
				initRound(t + 2)
			}
		}
		dispatch(released)
	}
}
