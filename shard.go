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
// execution goes through the query kind's runner (kind.go), i.e.
// search.RunComponent / search.RunComponentMCSAT, the same functions the
// local engine's own component loops call, so a component's answer is a
// pure function of its content and the canonical query options —
// identical in every process.
//
// Coordinator side: Server.shard decides whether a query decomposes (Auto
// mode, no tracker, the kind's component list exists and has more than
// one entry, at least one worker at the query's pinned epoch),
// LPT-balances the components over the local engine plus the eligible
// workers, dispatches the remote groups, and merges through the kind's
// merger. Any remote failure — dead worker, timeout, epoch moved under the
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
	mismatch := func(format string, args ...any) (wire.ShardResult, error) {
		return wire.ShardResult{}, &wire.PlanMismatchError{Detail: fmt.Sprintf(format, args...)}
	}
	if m := ep.res.MRF; int(req.NumAtoms) != m.NumAtoms {
		return mismatch("network has %d atoms, plan expects %d", m.NumAtoms, req.NumAtoms)
	}
	k := shardKind(req.Marginal)
	comps, ok := k.comps(e, ep)
	if !ok {
		return mismatch("epoch partitioning has cut clauses or oversized parts; not shardable")
	}
	if int(req.NumComps) != len(comps) {
		return mismatch("epoch has %d components, plan expects %d", len(comps), req.NumComps)
	}
	run := k.runner(e, comps, req)
	res := wire.ShardResult{Epoch: ep.gen, Marginal: req.Marginal}
	var sc search.Scratch // search state shared by this request's components
	for _, idx := range req.Indices {
		if int(idx) >= len(comps) {
			return mismatch("component index %d out of range", idx)
		}
		c, err := run(ctx, idx, &sc)
		if ctx.Err() != nil {
			// Typed, so the coordinator tells "gave up under its deadline"
			// from "broke"; a component finished meanwhile is dropped with it.
			return wire.ShardResult{}, fmt.Errorf("%w: %v", wire.ErrRemoteCanceled, context.Cause(ctx))
		}
		if err != nil {
			return wire.ShardResult{}, err
		}
		res.Comps = append(res.Comps, c)
	}
	return res, nil
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

// dispatchShards runs the grouped component indices: group 0 on the local
// engine (via run), groups 1..n on their replicas, with any failed remote
// group re-run locally on the same pinned epoch. run executes one
// component locally, with its search state in the scratch of the group
// loop calling it; apply merges one component's outcome, local or remote,
// and is never called concurrently. Returns the first cancellation-style
// or merge error (remote failures are not errors — they fall back).
func dispatchShards(ctx context.Context, groups [][]uint32, replicas []*remote.Replica, req wire.ShardRequest, run componentRun, apply func(c wire.ShardComp) error) error {
	var mu sync.Mutex
	var firstErr error
	// merge applies a group's outcomes, or records why there are none.
	merge := func(err error, comps ...wire.ShardComp) {
		mu.Lock()
		defer mu.Unlock()
		for i := 0; i < len(comps) && err == nil; i++ {
			err = apply(comps[i])
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	runLocal := func(indices []uint32) {
		var sc search.Scratch
		for _, idx := range indices {
			if ctx.Err() != nil {
				merge(search.Canceled(ctx))
				return
			}
			c, err := run(ctx, idx, &sc)
			merge(err, c)
			if err != nil {
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
			merge(nil, res.Comps...)
		}(g, indices)
	}
	wg.Wait()
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

// shard answers one query by sharding its components across the worker
// pool, merged bit-identically to the kind's local run. handled=false
// means the query does not decompose here (wrong mode, tracker, no
// component list, a single component, or no eligible workers) and the
// caller should run it locally as usual.
func (s *Server) shard(ctx context.Context, k *queryKind, eng *Engine, opts InferOptions) (res result, handled bool, err error) {
	if s.pool == nil || opts.Mode != Auto || opts.Tracker != nil {
		return nil, false, nil
	}
	// The same canonicalization the local run applies: shard requests must
	// carry the effective values, not the zero-means-default form.
	opts = opts.withDefaults()
	ep, release, err := eng.acquire(ctx)
	if err != nil {
		return nil, true, err
	}
	defer release()
	comps, ok := k.comps(eng, ep)
	if !ok || len(comps) < 2 {
		return nil, false, nil
	}
	replicas := s.pool.Candidates(ep.gen)
	if len(replicas) == 0 {
		return nil, false, nil
	}

	req := k.request(opts)
	req.Epoch = ep.gen
	req.NumAtoms = uint32(ep.res.MRF.NumAtoms)
	req.NumComps = uint32(len(comps))

	weights := make([]int64, len(comps))
	for i, c := range comps {
		weights[i] = int64(c.Size()) + int64(len(c.MRF.Clauses))
	}
	groups := lptGroups(weights, len(replicas)+1)

	searchStart := time.Now()
	apply, finish := k.merger(eng, ep, comps)
	runErr := dispatchShards(ctx, groups, replicas, req, k.runner(eng, comps, req), apply)
	if runErr == nil && ctx.Err() != nil {
		runErr = search.Canceled(ctx)
	}
	return finish(time.Since(searchStart)), true, runErr
}

// inferOn executes one admitted query on the given backend, sharding
// across workers when the query decomposes and workers are available, and
// running locally otherwise. Both paths produce bit-identical answers.
func (s *Server) inferOn(ctx context.Context, k *queryKind, eng *Engine, opts InferOptions) (result, error) {
	if res, handled, err := s.shard(ctx, k, eng, opts); handled {
		return res, err
	}
	return k.local(ctx, eng, opts)
}
