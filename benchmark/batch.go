package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"time"

	"tuffy"
	"tuffy/internal/mrf"
)

// answer is what one text-to-answer request returns, reduced to what must
// repeat exactly: rep against rep, traced against untraced, HTTP against
// in-process.
type answer struct {
	Cost  float64
	Flips int64
	// Hash covers the formatted MAP atoms and, when the workload asks for
	// marginals, every formatted atom with its probability bits.
	Hash uint64
}

func (a answer) String() string {
	return fmt.Sprintf("cost=%v flips=%d hash=%016x", a.Cost, a.Flips, a.Hash)
}

// answerHasher folds formatted answer lines into one hash.
type answerHasher struct{ h hash.Hash64 }

func newAnswerHasher() answerHasher { return answerHasher{fnv.New64a()} }

func (ah answerHasher) line(s string) {
	io.WriteString(ah.h, s)
	ah.h.Write([]byte{'\n'})
}

func (ah answerHasher) prob(atom string, p float64) {
	ah.line(atom)
	binary.Write(ah.h, binary.LittleEndian, math.Float64bits(p))
}

func (ah answerHasher) sum() uint64 { return ah.h.Sum64() }

// batchRep is one cold text-to-answer request through the public Engine
// API, plus the untimed measurements taken while its engine is still live.
type batchRep struct {
	wall   time.Duration
	ans    answer
	stats  mrf.Stats
	heapMB float64
	// eng stays live as long as the rep is referenced; a caller that keeps
	// the rep but not the engine must clear it, or the next rep's live heap
	// counts two engines.
	eng *tuffy.Engine
}

// coldRep runs the whole path text -> parse -> ground -> partition -> search
// -> formatted answer on a fresh engine. Only the Go runtime is warm.
func coldRep(ctx context.Context, w workload, in input, seed int64, par int) (batchRep, error) {
	var rep batchRep
	start := time.Now()
	eng, err := w.openText(in, tuffy.EngineConfig{GroundWorkers: par})
	if err != nil {
		return rep, err
	}
	if err := eng.Ground(ctx); err != nil {
		return rep, fmt.Errorf("%s: ground: %w", w.name, err)
	}
	opts := tuffy.InferOptions{Seed: seed, MaxFlips: w.flips, Parallelism: par, Samples: w.samples}
	res, err := eng.InferMAP(ctx, opts)
	if err != nil {
		return rep, fmt.Errorf("%s: InferMAP: %w", w.name, err)
	}
	ah := newAnswerHasher()
	for _, a := range res.TrueAtoms {
		ah.line(eng.FormatAtom(a))
	}
	if w.samples > 0 {
		mres, err := eng.InferMarginal(ctx, opts)
		if err != nil {
			return rep, fmt.Errorf("%s: InferMarginal: %w", w.name, err)
		}
		for _, ap := range mres.Probs {
			ah.prob(eng.FormatAtom(ap.Atom), ap.P)
		}
	}
	rep.wall = time.Since(start)
	rep.ans = answer{Cost: res.Cost, Flips: res.Flips, Hash: ah.sum()}

	// Untimed: recompute the cost from the returned state, then size the
	// live heap with the grounded engine and its answer still referenced.
	m := eng.Grounded().MRF
	if got := m.Cost(res.State); !sameCost(got, res.Cost) {
		return rep, fmt.Errorf("%s: reported cost %v but MRF.Cost(state) = %v", w.name, res.Cost, got)
	}
	rep.stats = m.ComputeStats()
	rep.heapMB = liveHeapMB()
	runtime.KeepAlive(res)
	rep.eng = eng
	return rep, nil
}

// sameCost allows for the rounding of a different summation order: search
// keeps the cost incrementally, MRF.Cost sums the violated clauses afresh.
func sameCost(a, b float64) bool {
	return a == b || math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// programmaticStats grounds the datagen dataset directly, without the text
// round trip, so a serialisation or parser defect shows as a stats mismatch.
func programmaticStats(ctx context.Context, w workload, in input, par int) (mrf.Stats, error) {
	eng, err := tuffy.Open(in.ds.Prog, in.ds.Ev, tuffy.EngineConfig{GroundWorkers: par, MemoryBudgetBytes: w.budget})
	if err != nil {
		return mrf.Stats{}, err
	}
	if err := eng.Ground(ctx); err != nil {
		return mrf.Stats{}, err
	}
	return eng.MRFStats()
}

// setupTimes runs the set-up repeatedly and keeps the last input. Set-up is
// dataset generation plus serialisation to the text the system receives.
// The small datasets serialise in well under a millisecond, so the rounds
// fill a fixed slice of time: the median of a few hundred rounds is steady
// where the median of nine is not.
func setupTimes(w workload, seed int64, smoke bool) (input, []time.Duration, error) {
	const minRounds, maxRounds, slice = 9, 400, 300 * time.Millisecond
	var in input
	var times []time.Duration
	begin := time.Now()
	for len(times) < minRounds || (len(times) < maxRounds && time.Since(begin) < slice) {
		start := time.Now()
		var err error
		if in, err = w.makeInput(seed, smoke); err != nil {
			return in, nil, err
		}
		times = append(times, time.Since(start))
	}
	return in, times, nil
}

// runBatch measures one batch workload for about cfg.seconds.
func runBatch(ctx context.Context, w workload, cfg config) (*runReport, error) {
	rr := newReport(w, cfg)
	in, setups, err := setupTimes(w, cfg.seed, cfg.smoke)
	if err != nil {
		return nil, err
	}

	want, err := programmaticStats(ctx, w, in, cfg.par)
	if err != nil {
		return nil, fmt.Errorf("%s: programmatic dataset: %w", w.name, err)
	}
	// One untimed warm-up rep; its answer is the reference every later rep
	// (and the traced replay) must equal.
	ref, err := coldRep(ctx, w, in, cfg.seed, cfg.par)
	if err != nil {
		return nil, err
	}
	ref.eng = nil
	rr.check("text-loaded MRFStats equal the programmatic dataset's", ref.stats == want,
		fmt.Sprintf("text %+v, programmatic %+v", ref.stats, want))

	var walls []time.Duration
	var heaps []float64
	var layers []layerSample
	failed := 0
	identical, replayOK := true, true
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < cfg.seconds; i++ {
		rep, err := coldRep(ctx, w, in, cfg.seed, cfg.par)
		if err != nil {
			rr.check("rep", false, err.Error())
			failed++
			continue
		}
		walls = append(walls, rep.wall)
		heaps = append(heaps, rep.heapMB)
		if rep.ans != ref.ans || rep.stats != ref.stats {
			identical = false
			failed++
			rr.note("rep %d: %v, reference %v", i, rep.ans, ref.ans)
		}
		if cfg.trace {
			// Alternate an untraced and a traced rep so both see the same
			// machine state; the end-to-end numbers never come from here.
			ls, err := tracedRep(ctx, w, in, cfg, cfg.tracer)
			if err != nil {
				return nil, err
			}
			layers = append(layers, ls)
			if ls.ans != ref.ans || ls.stats != ref.stats {
				replayOK = false
				rr.note("traced rep %d: %v %+v, engine path %v %+v", i, ls.ans, ls.stats, ref.ans, ref.stats)
			}
		}
	}
	measured := time.Since(start)
	rr.check("every rep returns identical cost, flips and answer hash", identical, "")
	rr.phase("reps", len(walls)+failed, failed)

	ws := seconds(walls)
	rr.endToEnd("setup_s", median(seconds(setups)), summarize(seconds(setups)))
	rr.endToEnd("answer_ms", median(ws)*1e3, summarize(millis(walls)))
	rr.endToEnd("ops_per_s", float64(len(walls))/sum(ws), summary{N: len(walls)})
	rr.endToEnd("live_heap_mb", median(heaps), summarize(heaps))
	rr.detail("map_cost", ref.ans.Cost, "cost")
	rr.detail("measured_s", measured.Seconds(), "s")

	if cfg.trace {
		rr.check("traced replay reproduces the Engine path's MRFStats, cost, flips and answer", replayOK, "")
		fillLayers(rr, w, layers, median(ws))
	}
	return rr, nil
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
