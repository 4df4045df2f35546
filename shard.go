package tuffy

// This file is the component sharder of the distributed inference tier —
// the coordinator and worker halves of splitting ONE query's independent
// components across processes (the task-decomposition reading of the
// paper's Section 3.3: components are exactly-independent subproblems, so
// they distribute with a deterministic merge and no approximation).
//
// Worker side: Engine implements remote.Backend — Identity (the
// fingerprint handshake), InferShard (run a group of components on a
// named epoch), ApplyDelta (the update fan-out target). Per-component
// execution goes through search.RunComponent / search.RunComponentMCSAT,
// the same functions the local engine's own component loops call, so a
// component's answer is a pure function of its content and the canonical
// query options — identical in every process.
//
// Coordinator side: Server.shardMAP / shardMarginal decide whether a
// query decomposes (Auto mode, no cut clauses, no oversized parts, more
// than one component, at least one worker at the query's pinned epoch),
// LPT-balance the components over the local engine plus the eligible
// workers, dispatch the remote groups, and merge in canonical component
// order. Any remote failure — dead worker, timeout, epoch moved under the
// worker — re-runs that group on the coordinator's own pinned epoch, so a
// worker dying mid-query degrades latency, never answers, and a
// mixed-epoch merge is impossible by construction.

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"tuffy/internal/mln"
	"tuffy/internal/mrf"
	"tuffy/internal/remote"
	"tuffy/internal/search"
	"tuffy/internal/wire"
)

// fingerprintShardConfig hashes the config knobs (beyond the program
// fingerprint) that shape the component decomposition and the per-
// component option derivation: the memory budget (partition granularity
// and the oversized threshold) and memo enablement (budget denominator
// and seed scheme). Coordinator and workers must agree on these for their
// per-component answers to be interchangeable.
func fingerprintShardConfig(cfg EngineConfig) uint64 {
	h := fnv.New64a()
	var b [9]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(uint64(cfg.MemoryBudgetBytes) >> (8 * i))
	}
	if cfg.MemoEntries >= 0 {
		b[8] = 1
	}
	h.Write(b[:])
	return h.Sum64()
}

// Identity reports the engine's handshake identity: program, base
// evidence and shard-config fingerprints plus the current generation.
func (e *Engine) Identity() wire.Hello {
	return wire.Hello{
		Version: wire.Version,
		ProgFP:  e.idProgFP,
		EvFP:    e.idEvFP,
		CfgFP:   e.idCfgFP,
		Epoch:   e.Generation(),
	}
}

// shardBaseOptions derives the defaulted WalkSAT base options of a MAP
// shard. One function serves the coordinator's local groups and the
// worker's InferShard, so both sides run components under literally the
// same derivation.
func shardBaseOptions(req wire.ShardRequest) search.Options {
	return search.DefaultedOptions(search.Options{
		MaxFlips: req.MaxFlips,
		MaxTries: int(req.MaxTries),
		Seed:     req.Seed,
	})
}

// shardMCSATOptions is shardBaseOptions for marginal shards.
func shardMCSATOptions(req wire.ShardRequest) search.MCSATOptions {
	return search.MCSATOptions{
		Samples: int(req.Samples),
		BurnIn:  int(req.Samples) / 10,
		Seed:    req.Seed,
	}
}

// mapShardComps returns the canonical component list of a MAP shard on
// this epoch (the partition parts as components) and their atom total —
// valid only when the partitioning has no cut clauses and no oversized
// parts, the same precondition under which InferMAP's Auto path runs
// plain component-aware search and the coordinator shards at all.
func (e *Engine) mapShardComps(ep *epoch) ([]*mrf.Component, int64, bool) {
	pt := ep.partitioning(e.partitionBeta())
	if pt.NumCut() > 0 {
		return nil, 0, false
	}
	comps := make([]*mrf.Component, len(pt.Parts))
	var total int64
	for i, p := range pt.Parts {
		if e.cfg.MemoryBudgetBytes > 0 && p.Bytes() > e.cfg.MemoryBudgetBytes {
			return nil, 0, false
		}
		comps[i] = &mrf.Component{MRF: p.Local, GlobalAtom: p.GlobalAtom}
		total += int64(p.Local.NumAtoms)
	}
	return comps, total, true
}

// InferShard runs one group of components on the requested epoch — the
// worker half of the sharder (remote.Backend). The epoch is validated
// first (a worker that saw an evidence update the query pre-dates answers
// with the typed retryable mismatch, never a wrong-epoch result), then
// the decomposition guards prove the worker derived the same component
// list the coordinator sharded over.
func (e *Engine) InferShard(ctx context.Context, req wire.ShardRequest) (wire.ShardResult, error) {
	ep, release, err := e.acquire(ctx)
	if err != nil {
		return wire.ShardResult{}, err
	}
	defer release()
	if ep.gen != req.Epoch {
		return wire.ShardResult{}, &wire.EpochMismatchError{Have: ep.gen, Want: req.Epoch}
	}
	m := ep.res.MRF
	if int(req.NumAtoms) != m.NumAtoms {
		return wire.ShardResult{}, &wire.PlanMismatchError{
			Detail: fmt.Sprintf("network has %d atoms, plan expects %d", m.NumAtoms, req.NumAtoms),
		}
	}

	res := wire.ShardResult{Epoch: ep.gen, Marginal: req.Marginal}
	var sc search.Scratch // search state shared by this request's components
	if req.Marginal {
		comps := ep.components()
		if int(req.NumComps) != len(comps) {
			return wire.ShardResult{}, &wire.PlanMismatchError{
				Detail: fmt.Sprintf("epoch has %d components, plan expects %d", len(comps), req.NumComps),
			}
		}
		mo := shardMCSATOptions(req)
		for _, idx := range req.Indices {
			if int(idx) >= len(comps) {
				return wire.ShardResult{}, &wire.PlanMismatchError{
					Detail: fmt.Sprintf("component index %d out of range", idx),
				}
			}
			local, err := search.RunComponentMCSAT(ctx, comps[idx], int(idx), mo, &sc)
			if err != nil || ctx.Err() != nil {
				return wire.ShardResult{}, shardCancel(ctx, err)
			}
			res.Comps = append(res.Comps, wire.ShardComp{Index: idx, Probs: local})
		}
		return res, nil
	}

	comps, totalAtoms, ok := e.mapShardComps(ep)
	if !ok {
		return wire.ShardResult{}, &wire.PlanMismatchError{
			Detail: "epoch partitioning has cut clauses or oversized parts; not shardable",
		}
	}
	if int(req.NumComps) != len(comps) {
		return wire.ShardResult{}, &wire.PlanMismatchError{
			Detail: fmt.Sprintf("epoch has %d parts, plan expects %d", len(comps), req.NumComps),
		}
	}
	base := shardBaseOptions(req)
	for _, idx := range req.Indices {
		if int(idx) >= len(comps) {
			return wire.ShardResult{}, &wire.PlanMismatchError{
				Detail: fmt.Sprintf("part index %d out of range", idx),
			}
		}
		r := search.RunComponent(ctx, comps[idx], int(idx), totalAtoms, base, e.memo, &sc)
		if r.Best == nil || ctx.Err() != nil {
			return wire.ShardResult{}, shardCancel(ctx, nil)
		}
		res.Comps = append(res.Comps, wire.ShardComp{
			Index: idx, Cost: r.BestCost, Flips: r.Flips, State: r.Best,
		})
	}
	return res, nil
}

// shardCancel maps a canceled shard run to the wire's typed cancel error.
func shardCancel(ctx context.Context, err error) error {
	if ctx.Err() != nil {
		return fmt.Errorf("%w: %v", wire.ErrRemoteCanceled, context.Cause(ctx))
	}
	if err != nil {
		return err
	}
	return wire.ErrRemoteCanceled
}

// ApplyDelta decodes and applies one fanned-out evidence delta
// (remote.Backend). Deltas set absolute truth values, so re-application
// during a catch-up replay is a logical no-op.
func (e *Engine) ApplyDelta(ctx context.Context, payload []byte) (wire.UpdateAck, error) {
	delta, err := mln.DecodeDelta(e.prog, payload)
	if err != nil {
		return wire.UpdateAck{}, fmt.Errorf("%w: %v", wire.ErrBadPayload, err)
	}
	ur, err := e.UpdateEvidence(ctx, delta)
	if err != nil {
		return wire.UpdateAck{}, err
	}
	return wire.UpdateAck{
		Epoch:          ur.Epoch,
		Identical:      ur.Identical,
		UpdatesApplied: e.UpdatesApplied(),
	}, nil
}

// ---- coordinator side ----

// lptGroups assigns component indices to executors with the Longest
// Processing Time rule: heaviest component first, each onto the currently
// lightest executor. Deterministic (ties break on lower index / lower
// executor) and independent of which executors are worker processes.
// Returns one ascending index list per executor; executors beyond the
// component count get empty groups.
func lptGroups(weights []int64, executors int) [][]uint32 {
	order := make([]int, len(weights))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if weights[order[a]] != weights[order[b]] {
			return weights[order[a]] > weights[order[b]]
		}
		return order[a] < order[b]
	})
	groups := make([][]uint32, executors)
	loads := make([]int64, executors)
	for _, idx := range order {
		best := 0
		for x := 1; x < executors; x++ {
			if loads[x] < loads[best] {
				best = x
			}
		}
		groups[best] = append(groups[best], uint32(idx))
		loads[best] += weights[idx]
	}
	for _, g := range groups {
		sort.Slice(g, func(a, b int) bool { return g[a] < g[b] })
	}
	return groups
}

// shardDeadlineMillis converts the query context's remaining deadline to
// the wire's millisecond field (0 = none).
func shardDeadlineMillis(ctx context.Context) uint32 {
	dl, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	ms := time.Until(dl).Milliseconds()
	if ms < 1 {
		ms = 1
	}
	if ms > int64(^uint32(0)) {
		return 0
	}
	return uint32(ms)
}

// dispatchShards runs the grouped component indices: group 0 on the local
// engine (via run), groups 1..n on their replicas, with any failed remote
// group re-run locally on the same pinned epoch. apply merges one
// component's wire result under the caller's lock; run executes one
// component locally, with its search state in the scratch of the group
// loop calling it, and applies it directly. Returns the first
// cancellation-style error (remote failures are not errors — they fall
// back).
func dispatchShards(ctx context.Context, groups [][]uint32, replicas []*remote.Replica, req wire.ShardRequest, run func(ctx context.Context, idx uint32, sc *search.Scratch) error, apply func(c wire.ShardComp) error) error {
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil && err != nil {
			firstErr = err
		}
		mu.Unlock()
	}
	runLocal := func(indices []uint32) {
		var sc search.Scratch
		for _, idx := range indices {
			if ctx.Err() != nil {
				fail(search.Canceled(ctx))
				return
			}
			if err := run(ctx, idx, &sc); err != nil {
				fail(err)
				return
			}
		}
	}
	var wg sync.WaitGroup
	for g, indices := range groups {
		if len(indices) == 0 {
			continue
		}
		wg.Add(1)
		go func(g int, indices []uint32) {
			defer wg.Done()
			if g == 0 {
				runLocal(indices)
				return
			}
			r := req
			r.Indices = indices
			res, err := replicas[g-1].Infer(ctx, r)
			if err == nil {
				err = checkShardResult(r, res)
			}
			if err != nil {
				// Dead worker, timeout, epoch moved, malformed answer: the
				// group degrades to the coordinator's own pinned epoch. The
				// query never fails because a worker did.
				runLocal(indices)
				return
			}
			mu.Lock()
			defer mu.Unlock()
			for _, c := range res.Comps {
				if err := apply(c); err != nil {
					if firstErr == nil {
						firstErr = err
					}
					return
				}
			}
		}(g, indices)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	return firstErr
}

// checkShardResult validates a worker's answer against its request:
// matching epoch, one component per requested index, in order. A worker
// that disagrees is treated exactly like a dead one.
func checkShardResult(req wire.ShardRequest, res wire.ShardResult) error {
	if res.Epoch != req.Epoch {
		return fmt.Errorf("shard result on epoch %d, want %d", res.Epoch, req.Epoch)
	}
	if res.Marginal != req.Marginal {
		return fmt.Errorf("shard result mode mismatch")
	}
	if len(res.Comps) != len(req.Indices) {
		return fmt.Errorf("shard result has %d components, want %d", len(res.Comps), len(req.Indices))
	}
	for i, c := range res.Comps {
		if c.Index != req.Indices[i] {
			return fmt.Errorf("shard result component %d has index %d, want %d", i, c.Index, req.Indices[i])
		}
	}
	return nil
}

// shardMAP answers one MAP query by sharding its components across the
// worker pool, merged bit-identically to Engine.InferMAP. handled=false
// means the query does not decompose here (wrong mode, tracker, cut
// clauses, oversized parts, single component, or no eligible workers)
// and the caller should run it locally as usual.
func (s *Server) shardMAP(ctx context.Context, eng *Engine, opts InferOptions) (res *MAPResult, handled bool, err error) {
	if s.pool == nil || opts.Mode != Auto || opts.Tracker != nil {
		return nil, false, nil
	}
	// The same canonicalization Engine.InferMAP applies: shard requests must
	// carry the effective values, not the zero-means-default form.
	opts = opts.withDefaults()
	ep, release, err := eng.acquire(ctx)
	if err != nil {
		return nil, true, err
	}
	defer release()
	comps, totalAtoms, ok := eng.mapShardComps(ep)
	if !ok || len(comps) < 2 {
		return nil, false, nil
	}
	replicas := s.pool.Candidates(ep.gen)
	if len(replicas) == 0 {
		return nil, false, nil
	}

	m := ep.res.MRF
	req := wire.ShardRequest{
		Epoch:          ep.gen,
		NumAtoms:       uint32(m.NumAtoms),
		NumComps:       uint32(len(comps)),
		Seed:           opts.Seed,
		MaxFlips:       opts.MaxFlips,
		MaxTries:       uint32(opts.MaxTries),
		DeadlineMillis: shardDeadlineMillis(ctx),
	}
	base := shardBaseOptions(req)

	weights := make([]int64, len(comps))
	for i, c := range comps {
		weights[i] = int64(c.Size()) + int64(len(c.MRF.Clauses))
	}
	groups := lptGroups(weights, len(replicas)+1)

	searchStart := time.Now()
	res = &MAPResult{
		GroundTime: eng.GroundTime(),
		Epoch:      ep.gen,
		Partitions: len(comps),
	}
	global := m.NewState()
	perComp := make([]float64, len(comps))
	for i, c := range comps {
		// Unfinished components contribute their all-false baseline, exactly
		// as in search.ComponentAware under cancellation.
		perComp[i] = c.MRF.AllFalseCost()
	}
	var mu sync.Mutex
	apply := func(c wire.ShardComp) error {
		comp := comps[c.Index]
		if len(c.State) != comp.Size()+1 {
			return fmt.Errorf("tuffy: shard state for component %d has %d atoms, want %d", c.Index, len(c.State)-1, comp.Size())
		}
		perComp[c.Index] = c.Cost
		res.Flips += c.Flips
		comp.ProjectState(c.State, global)
		return nil
	}
	run := func(ctx context.Context, idx uint32, sc *search.Scratch) error {
		r := search.RunComponent(ctx, comps[idx], int(idx), totalAtoms, base, eng.memo, sc)
		if r.Best == nil {
			return search.Canceled(ctx)
		}
		mu.Lock()
		defer mu.Unlock()
		return apply(wire.ShardComp{Index: idx, Cost: r.BestCost, Flips: r.Flips, State: r.Best})
	}
	runErr := dispatchShards(ctx, groups, replicas, req, run, func(c wire.ShardComp) error {
		// dispatchShards already holds no lock here for remote groups; take
		// the same one the local path uses.
		mu.Lock()
		defer mu.Unlock()
		return apply(c)
	})

	res.State = global
	res.Cost = m.FixedCost
	for _, c := range perComp {
		res.Cost += c
	}
	res.SearchTime = time.Since(searchStart)
	res.TrueAtoms = trueAtoms(m, res.State)
	if runErr == nil && ctx.Err() != nil {
		runErr = search.Canceled(ctx)
	}
	return res, true, runErr
}

// shardMarginal is shardMAP for marginal queries: the components are the
// epoch's connected-component factorization, each sampled with its own
// deterministic MC-SAT chain, merged exactly as search.MCSATComponents
// merges them.
func (s *Server) shardMarginal(ctx context.Context, eng *Engine, opts InferOptions) (res *MarginalResult, handled bool, err error) {
	if s.pool == nil || opts.Mode != Auto {
		return nil, false, nil
	}
	opts = opts.withDefaults()
	ep, release, err := eng.acquire(ctx)
	if err != nil {
		return nil, true, err
	}
	defer release()
	if beta := eng.partitionBeta(); beta > 0 && ep.partitioning(beta).NumCut() > 0 {
		return nil, false, nil // the Gauss-Seidel MC-SAT path; not component-shardable
	}
	comps := ep.components()
	if len(comps) < 2 {
		return nil, false, nil
	}
	replicas := s.pool.Candidates(ep.gen)
	if len(replicas) == 0 {
		return nil, false, nil
	}

	m := ep.res.MRF
	req := wire.ShardRequest{
		Marginal:       true,
		Epoch:          ep.gen,
		NumAtoms:       uint32(m.NumAtoms),
		NumComps:       uint32(len(comps)),
		Seed:           opts.Seed,
		Samples:        uint32(opts.Samples),
		DeadlineMillis: shardDeadlineMillis(ctx),
	}
	mo := shardMCSATOptions(req)

	weights := make([]int64, len(comps))
	for i, c := range comps {
		weights[i] = int64(c.Size()) + int64(len(c.MRF.Clauses))
	}
	groups := lptGroups(weights, len(replicas)+1)

	probs := make([]float64, m.NumAtoms+1)
	var mu sync.Mutex
	apply := func(c wire.ShardComp) error {
		comp := comps[c.Index]
		if len(c.Probs) != comp.Size()+1 {
			return fmt.Errorf("tuffy: shard marginals for component %d have %d atoms, want %d", c.Index, len(c.Probs)-1, comp.Size())
		}
		for i := 1; i <= comp.MRF.NumAtoms; i++ {
			probs[comp.GlobalAtom[i]] = c.Probs[i]
		}
		return nil
	}
	run := func(ctx context.Context, idx uint32, sc *search.Scratch) error {
		local, err := search.RunComponentMCSAT(ctx, comps[idx], int(idx), mo, sc)
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		return apply(wire.ShardComp{Index: idx, Probs: local})
	}
	runErr := dispatchShards(ctx, groups, replicas, req, run, func(c wire.ShardComp) error {
		mu.Lock()
		defer mu.Unlock()
		return apply(c)
	})

	res = &MarginalResult{Epoch: ep.gen}
	for a := 1; a <= m.NumAtoms; a++ {
		res.Probs = append(res.Probs, AtomProb{Atom: m.Atoms[a], P: probs[a]})
	}
	if runErr == nil && ctx.Err() != nil {
		runErr = search.Canceled(ctx)
	}
	return res, true, runErr
}

// inferMAPOn executes one admitted MAP query on the given backend,
// sharding across workers when the query decomposes and workers are
// available, and running locally otherwise. Both paths produce
// bit-identical answers.
func (s *Server) inferMAPOn(ctx context.Context, eng *Engine, opts InferOptions) (*MAPResult, error) {
	if res, handled, err := s.shardMAP(ctx, eng, opts); handled {
		return res, err
	}
	return eng.InferMAP(ctx, opts)
}

// inferMarginalOn is inferMAPOn for marginal queries.
func (s *Server) inferMarginalOn(ctx context.Context, eng *Engine, opts InferOptions) (*MarginalResult, error) {
	if res, handled, err := s.shardMarginal(ctx, eng, opts); handled {
		return res, err
	}
	return eng.InferMarginal(ctx, opts)
}
