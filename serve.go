package tuffy

// This file is the serving layer on top of the Engine: tuffy.Serve wraps
// one or more grounded Engines in an admission-controlled scheduler
// (internal/server) with per-priority FIFO lanes, a bounded queue, per-
// query budget enforcement, an epoch-keyed result cache over canonicalized
// InferOptions, and metrics. Server.UpdateEvidence propagates live
// evidence deltas to every backend and sweeps the cache entries the new
// epoch superseded. It is the heavy-traffic front door: cmd/tuffyd exposes
// it over HTTP (including POST /evidence), and benchmark/'s rc-serve
// workload measures it under concurrent clients.

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tuffy/internal/mln"
	"tuffy/internal/remote"
	"tuffy/internal/server"
)

// ServerMetrics is a snapshot of the serving layer's counters.
type ServerMetrics = server.Metrics

// Typed admission outcomes, re-exported so callers match them with
// errors.Is without importing internal packages.
var (
	// ErrQueueFull rejects a query when the admission queue is at capacity.
	ErrQueueFull = server.ErrQueueFull
	// ErrServerClosed rejects queries after Close.
	ErrServerClosed = server.ErrServerClosed
	// ErrBudgetExceeded rejects a query whose explicit budgets exceed the
	// server's per-query caps; the concrete error carries the resource,
	// the request and the limit.
	ErrBudgetExceeded = server.ErrBudgetExceeded
	// ErrExpiredInQueue reports a query whose context ended while it was
	// still waiting for an execution slot — it never ran.
	ErrExpiredInQueue = server.ErrExpiredInQueue
)

// ServerConfig tunes the admission-controlled serving layer. The zero
// value serves with 4 execution slots, a 64-query admission queue, 3
// priority lanes, no budget caps, no per-query deadline and a 4096-entry
// result cache.
type ServerConfig struct {
	// MaxInFlight caps concurrently executing queries (default 4).
	MaxInFlight int
	// MaxQueue bounds admitted-but-waiting queries across all lanes;
	// queries beyond it are rejected with ErrQueueFull (default 64).
	MaxQueue int
	// Priorities is the number of lanes; Request.Priority 0 is served
	// first, Priorities-1 last (default 3).
	Priorities int

	// MaxFlipsPerQuery caps one query's WalkSAT flip budget (0 = no cap).
	// A query that explicitly asks for more is rejected with a
	// *server.BudgetError; a query that left MaxFlips at zero has its
	// default budget clamped down to the cap instead.
	MaxFlipsPerQuery int64
	// MaxSamplesPerQuery caps one marginal query's MC-SAT samples, with
	// the same explicit-reject / default-clamp split.
	MaxSamplesPerQuery int
	// MaxBytesPerQuery rejects queries whose estimated search memory (from
	// the grounded network's atom/clause counts, per mode) exceeds the cap
	// (0 = no cap).
	MaxBytesPerQuery int64
	// MaxQueryTime is a per-query wall-clock deadline applied at
	// admission; it covers queue wait plus execution, through the same
	// context plumbing every search loop already honors. 0 = none.
	MaxQueryTime time.Duration

	// CacheEntries bounds the result cache (0 = default 4096, negative =
	// caching disabled). Keys carry the epoch that produced the answer, so
	// a hit is bit-identical to a fresh run on the current epoch; an
	// evidence update retires the previous epoch's keys (UpdateEvidence
	// sweeps them) and later identical queries recompute on the new epoch.
	CacheEntries int

	// DataDir, when set, persists the result cache across restarts: Close
	// (and CheckpointCache) writes the cached answers to DataDir/cache.tfy,
	// and Serve reloads them, so a warm-started server answers its working
	// set from cache immediately. Entries are epoch-keyed, and the cache is
	// only persisted after the engines' own updates are durable, so a
	// reloaded entry either matches the recovered epoch (served, bit-
	// identical) or is tagged with a superseded epoch (unreachable, swept
	// later). A missing or corrupt cache file starts the cache empty — it
	// is a cache, never a source of truth. Typically set to the same
	// directory as EngineConfig.DataDir.
	DataDir string

	// Workers lists remote worker addresses (host:port, each a
	// `tuffyd -worker` process grounded from the same program and evidence).
	// When set, queries that decompose into independent components are
	// sharded across the workers and the local engines and merged
	// bit-identically to a single-engine run; queries that do not decompose,
	// and all queries when no worker is live, run locally as usual. Empty =
	// single-process serving, completely unchanged.
	Workers []string
	// WorkerProbeEvery is the worker health-probe cadence (default 250ms).
	WorkerProbeEvery time.Duration
	// WorkerCallTimeout caps one remote shard or update call (default 30s).
	WorkerCallTimeout time.Duration
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.Priorities <= 0 {
		c.Priorities = 3
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 4096
	}
	return c
}

// Request is one query submitted to a Server.
type Request struct {
	// Options are the per-query knobs, exactly as for Engine.InferMAP /
	// InferMarginal.
	Options InferOptions
	// Priority selects the admission lane: 0 is most urgent; values are
	// clamped to the configured range.
	Priority int
}

// backend is one engine replica plus its live query count for least-loaded
// dispatch.
type backend struct {
	eng  *Engine
	load atomic.Int64
	// memBytes estimates one query's search memory per mode, derived from
	// the grounded network's clause counts at Serve time.
	memInMemory int64
	memInDB     int64
}

// Server fronts one or more grounded Engines with admission control,
// priority scheduling, per-query budgets, result caching and metrics. All
// methods are safe for concurrent use. Queries on one Server return
// results bit-identical to calling the Engine directly with the same
// options — whether they were scheduled, queued, or served from cache.
type Server struct {
	cfg      ServerConfig
	backends []*backend
	sched    *server.Scheduler
	cache    *server.Cache
	counters *server.Counters

	// pool manages the remote workers of the distributed tier (nil when
	// ServerConfig.Workers is empty); predIdx is the delta wire encoding's
	// predicate numbering, fixed at Serve time.
	pool    *remote.Pool
	predIdx map[*mln.Predicate]int32

	// updateMu serializes UpdateEvidence across backends so replicas move
	// through the same epoch sequence in lockstep.
	updateMu sync.Mutex
}

// Serve wraps the given grounded Engines in a serving layer. Multiple
// engines act as replicas: each admitted query runs on the least-loaded
// one, so the caller must ensure they were grounded from the same program
// and evidence if answers are to be interchangeable. Every engine must
// already be grounded — Serve performs no grounding, keeping admission
// deterministic and cheap.
func Serve(cfg ServerConfig, engines ...*Engine) (*Server, error) {
	if len(engines) == 0 {
		return nil, fmt.Errorf("tuffy: Serve needs at least one engine")
	}
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, counters: &server.Counters{}}
	for i, eng := range engines {
		g := eng.Grounded()
		if g == nil {
			return nil, fmt.Errorf("tuffy: Serve engine %d is not grounded", i)
		}
		st := g.MRF.ComputeStats()
		s.backends = append(s.backends, &backend{
			eng:         eng,
			memInMemory: st.SearchBytes,
			// The in-DB variant keeps only the atom state arrays and the
			// clause point index in memory; clause data stays on disk.
			memInDB: int64(g.MRF.NumAtoms)*2 + int64(st.NumClauses)*24,
		})
	}
	s.sched = server.NewScheduler(server.SchedulerConfig{
		Workers:  cfg.MaxInFlight,
		MaxQueue: cfg.MaxQueue,
		Lanes:    cfg.Priorities,
	}, s.counters)
	s.cache = server.NewCache(cfg.CacheEntries, s.counters)
	s.counters.Epoch.Store(s.generation())
	if cfg.DataDir != "" && s.cache.Enabled() {
		s.loadCache()
	}
	if len(cfg.Workers) > 0 {
		// The first backend's identity is representative: Serve already
		// requires all backends to share program and evidence, and they move
		// through epochs in lockstep.
		s.predIdx = mln.PredIndex(engines[0].prog)
		s.pool = remote.NewPool(remote.PoolConfig{
			Addrs:       cfg.Workers,
			Identity:    engines[0].Identity,
			CallTimeout: cfg.WorkerCallTimeout,
			ProbeEvery:  cfg.WorkerProbeEvery,
		})
		// One synchronous probe round so workers that are already up are in
		// membership before the first query; ones that are not stay out until
		// the probe loop sees them.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		s.pool.ProbeNow(ctx)
		cancel()
	}
	return s, nil
}

// WorkerStatus is one remote worker's health row, re-exported for
// /healthz and /metrics.
type WorkerStatus = remote.WorkerStatus

// Workers snapshots the remote worker pool's per-worker rows (nil when no
// workers are configured).
func (s *Server) Workers() []WorkerStatus {
	if s.pool == nil {
		return nil
	}
	return s.pool.Status()
}

// Config returns the configuration the server runs with: the one passed to
// Serve with every defaulted field filled in.
func (s *Server) Config() ServerConfig { return s.cfg }

// generation is the epoch the server currently serves. Backends move
// through epochs in lockstep (UpdateEvidence applies each delta to all of
// them under one lock), so the first backend is representative.
func (s *Server) generation() uint64 { return s.backends[0].eng.Generation() }

// Updating reports whether an evidence update is re-grounding any backend
// right now. Queries remain fully served while it is true.
func (s *Server) Updating() bool {
	for _, b := range s.backends {
		if b.eng.Updating() {
			return true
		}
	}
	return false
}

// Metrics snapshots the server's counters.
func (s *Server) Metrics() ServerMetrics { return s.counters.Snapshot() }

// Close stops admission (subsequent queries return ErrServerClosed),
// waits for queued and in-flight queries to finish, and — when
// ServerConfig.DataDir is set — persists the result cache for the next
// start. The returned error reports only the persistence step; shutdown
// itself cannot fail.
func (s *Server) Close() error {
	s.sched.Close()
	if s.pool != nil {
		s.pool.Close()
	}
	if s.cfg.DataDir == "" || !s.cache.Enabled() {
		return nil
	}
	return s.CheckpointCache()
}

// pick returns the least-loaded backend (lowest index on ties).
func (s *Server) pick() *backend {
	best := s.backends[0]
	bestLoad := best.load.Load()
	for _, b := range s.backends[1:] {
		if l := b.load.Load(); l < bestLoad {
			best, bestLoad = b, l
		}
	}
	return best
}

// admit canonicalizes the query options and enforces the per-query budget
// caps: explicit over-asks are rejected with a typed *server.BudgetError,
// defaulted budgets are clamped down to the caps (the same clamp-to-budget
// discipline internal/search applies to the hybrid fallback's flip
// budget).
func (s *Server) admit(k *queryKind, req Request) (InferOptions, error) {
	o := req.Options.withDefaults()
	if err := k.capBudget(s.cfg, req.Options, &o); err != nil {
		s.counters.RejectedBudget.Add(1)
		return o, err
	}
	if cap := s.cfg.MaxBytesPerQuery; cap > 0 {
		// Estimate against the largest replica, so admission does not
		// depend on which backend the query later lands on.
		var est int64
		for _, b := range s.backends {
			est = max(est, k.memBytes(b, o))
		}
		if est > cap {
			s.counters.RejectedBudget.Add(1)
			return o, &server.BudgetError{Resource: "memory", Requested: est, Limit: cap}
		}
	}
	return o, nil
}

// epochKey tags a canonical cache key with the epoch that answers it.
// Lookups use the current epoch's tag; fills use the epoch the run actually
// executed on (an in-flight query can straddle an update). Epochs are
// monotone and never reused, so an entry tagged with a superseded epoch can
// never be served again — it just waits for the next sweep or FIFO
// eviction.
func epochKey(gen uint64, base string) string {
	return fmt.Sprintf("e%d|%s", gen, base)
}

// runShared executes one admitted query through the scheduler on the
// least-loaded backend, applying the per-query wall-clock deadline. key
// identifies the answer the query will produce (canonical options +
// admission epoch), exec returns the result and whether it may be shared
// with queued same-key queries, and absorb receives another query's shared
// result if one lands first. An empty key degrades to plain scheduling.
func (s *Server) runShared(ctx context.Context, req Request, key string, exec func(context.Context, *Engine) (any, bool), absorb func(any)) error {
	if s.cfg.MaxQueryTime > 0 {
		// The deadline covers queue wait too: a query that waited its
		// whole budget expires in the queue instead of starting late.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.MaxQueryTime)
		defer cancel()
	}
	return s.sched.SubmitShared(ctx, req.Priority, key, func() (any, bool) {
		b := s.pick()
		b.load.Add(1)
		defer b.load.Add(-1)
		return exec(ctx, b.eng)
	}, absorb)
}

// InferMAP answers one MAP query through the admission layer: budget
// checks, cache lookup, scheduling, execution, cache fill. The result is
// bit-identical to Engine.InferMAP with the same options. Rejections
// return typed errors (ErrQueueFull, ErrBudgetExceeded, ErrExpiredInQueue,
// ErrServerClosed); a query canceled mid-run returns its best-so-far
// result with ErrCanceled, exactly like the Engine, and is not cached.
func (s *Server) InferMAP(ctx context.Context, req Request) (*MAPResult, error) {
	r, err := s.infer(ctx, mapKind, req)
	res, _ := r.(*MAPResult)
	return res, err
}

// InferMarginal is the marginal-inference counterpart of InferMAP, with
// the same admission, caching and rejection semantics.
func (s *Server) InferMarginal(ctx context.Context, req Request) (*MarginalResult, error) {
	r, err := s.infer(ctx, marginalKind, req)
	res, _ := r.(*MarginalResult)
	return res, err
}

// infer is the one query path: admit, look the answer up, schedule (or be
// absorbed into an identical query's run), execute, fill the cache.
func (s *Server) infer(ctx context.Context, k *queryKind, req Request) (result, error) {
	opts, err := s.admit(k, req)
	if err != nil {
		return nil, err
	}
	base := k.key(opts)
	gen := s.generation()
	current := epochKey(gen, base)
	// Tracker-free queries are batchable: the key ties the canonical
	// options to the admission epoch, so only queries whose answers are
	// interchangeable ever share one run. When one finishes, queued queries
	// with the same key complete with a copy of its result instead of each
	// consuming an execution slot (they count in Metrics.Batched).
	key := current
	if opts.Tracker != nil {
		// A Tracker needs a real run to observe; the query skips the lookup
		// (and, with an empty key, batching) but still fills the cache.
		s.counters.CacheMisses.Add(1)
		key = ""
	} else if v, ok := s.cache.Get(current); ok {
		return v.(result).clone(), nil
	}
	var res result
	var runErr error
	var absorbed bool
	if err := s.runShared(ctx, req, key, func(ctx context.Context, eng *Engine) (any, bool) {
		res, runErr = s.inferOn(ctx, k, eng, opts)
		// Publish for queued same-key queries only a complete answer that
		// is still current — an evidence update mid-run means followers
		// must recompute on the new epoch.
		return res, runErr == nil && res != nil && res.epoch() == gen && s.generation() == gen
	}, func(v any) {
		res, runErr, absorbed = v.(result).clone(), nil, true
	}); err != nil {
		return nil, err
	}
	// Only a complete (non-canceled) answer is cached, under the epoch it
	// was computed on; with the cache disabled the caller keeps the sole
	// reference, so no defensive copy. An absorbed answer is already a
	// private copy of a result the leader cached.
	if !absorbed && runErr == nil && res != nil && s.cache.Enabled() {
		s.cache.Put(epochKey(res.epoch(), base), res)
		res = res.clone()
	}
	return res, runErr
}

// UpdateEvidence applies one evidence delta to every backend and sweeps
// the result-cache entries the new epoch superseded. Backends are updated
// sequentially under one lock, so replicas move through the same epoch
// sequence; queries keep flowing the whole time (in-flight ones finish on
// the epoch they started on).
//
// If a backend fails mid-sequence, the already-updated backends are rolled
// back by applying the inverse delta, restoring a consistent fleet on the
// previous epoch, and the original error is returned — the caller can
// simply retry the same delta. Only if that compensation itself fails does
// the fleet stay split; the returned error then reports both failures.
func (s *Server) UpdateEvidence(ctx context.Context, delta mln.Delta) (*UpdateResult, error) {
	s.updateMu.Lock()
	defer s.updateMu.Unlock()
	var first *UpdateResult
	for i, b := range s.backends {
		ur, err := b.eng.UpdateEvidence(ctx, delta)
		if err != nil {
			// Compensate the backends already on the new epoch. The inverse
			// runs under a background context: backing out must not be
			// stopped by the cancellation that stopped the update.
			for j := i - 1; j >= 0; j-- {
				if _, cerr := s.backends[j].eng.UpdateEvidence(context.Background(), first.Inverse); cerr != nil {
					return nil, fmt.Errorf("tuffy: update failed on backend %d: %w (rolling back backend %d also failed: %v; replicas diverge)", i, err, j, cerr)
				}
			}
			return nil, fmt.Errorf("tuffy: update failed on backend %d (all backends restored): %w", i, err)
		}
		if first == nil {
			first = ur
		}
	}
	// Fan the delta out to the remote workers (still under updateMu, so the
	// pool's catch-up journal records deltas in application order). Worker
	// failures never fail the update — the local backends have committed;
	// a worker that missed the delta is demoted and caught up by the pool's
	// probe loop, and queries just stop sharding to it meanwhile.
	if s.pool != nil && !first.Identical {
		s.pool.Update(ctx, mln.EncodeDelta(s.predIdx, delta))
	}
	// Drop the entries whose epoch tag is no longer served. An identical
	// (no-op) update keeps the epoch, so everything current is retained.
	prefix := epochKey(s.generation(), "")
	inv, ret := s.cache.Sweep(func(k string) bool { return strings.HasPrefix(k, prefix) })
	s.counters.Epoch.Store(s.generation())
	s.counters.UpdatesApplied.Add(1)
	s.counters.CacheInvalidated.Add(int64(inv))
	s.counters.CacheRetained.Add(int64(ret))
	return first, nil
}
