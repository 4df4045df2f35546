package tuffy

// This file is the serving layer on top of the Engine: tuffy.Serve wraps
// one grounded Engine in an admission-controlled scheduler
// (internal/server) with a bounded FIFO queue, per-query budget
// enforcement, an epoch-keyed result cache over canonicalized
// InferOptions, and metrics. Server.UpdateEvidence applies live evidence
// deltas to the engine and sweeps the cache entries the new epoch
// superseded. It is the heavy-traffic front door: cmd/tuffyd exposes
// it over HTTP (including POST /evidence), and benchmark/'s rc-serve
// workload measures it under concurrent clients.

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"tuffy/internal/mln"
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
// value serves with 4 execution slots, a 64-query admission queue, no
// budget caps, no per-query deadline and a 4096-entry result cache.
type ServerConfig struct {
	// MaxInFlight caps concurrently executing queries (default 4).
	MaxInFlight int
	// MaxQueue bounds admitted-but-waiting queries; queries beyond it are
	// rejected with ErrQueueFull (default 64).
	MaxQueue int

	// MaxFlipsPerQuery caps one MAP query's WalkSAT flips over all of its
	// tries, MaxTries × MaxFlips (0 = no cap). A query that explicitly asks
	// for more is rejected with a *server.BudgetError; a query that left
	// MaxFlips at zero has its default per-try budget clamped down to
	// MaxFlipsPerQuery / MaxTries instead, and is rejected when it asks for
	// more tries than the cap has flips. When the served epoch's memory
	// budget cuts clauses, an Auto query runs Gauss-Seidel, which spends
	// MaxFlips per part per round: the cap then bounds
	// GaussSeidelRounds × parts × MaxFlips the same way.
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
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 4096
	}
	return c
}

// Server fronts one grounded Engine with admission control, FIFO
// scheduling, per-query budgets, result caching and metrics. All methods
// are safe for concurrent use. Queries on one Server return results
// bit-identical to calling the Engine directly with the same options —
// whether they were scheduled, queued, or served from cache.
type Server struct {
	cfg      ServerConfig
	eng      *Engine
	sched    *server.Scheduler
	cache    *server.Cache
	counters *server.Counters

	// memInMemory / memInDB estimate one query's search memory per mode,
	// derived from the grounded network's clause counts at Serve time.
	memInMemory int64
	memInDB     int64

	// updateMu serializes UpdateEvidence with the cache sweep that follows
	// it, so sweeps run in epoch order.
	updateMu sync.Mutex
}

// Serve wraps one grounded Engine in a serving layer. The engine must
// already be grounded — Serve performs no grounding, keeping admission
// deterministic and cheap.
func Serve(cfg ServerConfig, eng *Engine) (*Server, error) {
	g := eng.Grounded()
	if g == nil {
		return nil, fmt.Errorf("tuffy: Serve engine is not grounded")
	}
	st := g.MRF.ComputeStats()
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:         cfg,
		eng:         eng,
		counters:    &server.Counters{},
		memInMemory: st.SearchBytes,
		// The in-DB variant keeps only the atom state arrays and the clause
		// point index in memory; clause data stays on disk.
		memInDB: int64(g.MRF.NumAtoms)*2 + int64(st.NumClauses)*24,
	}
	s.sched = server.NewScheduler(server.SchedulerConfig{
		Workers:  cfg.MaxInFlight,
		MaxQueue: cfg.MaxQueue,
	}, s.counters)
	s.cache = server.NewCache(cfg.CacheEntries, s.counters)
	s.counters.Epoch.Store(s.generation())
	return s, nil
}

// Config returns the configuration the server runs with: the one passed to
// Serve with every defaulted field filled in.
func (s *Server) Config() ServerConfig { return s.cfg }

// generation is the epoch the server currently serves.
func (s *Server) generation() uint64 { return s.eng.Generation() }

// Updating reports whether an evidence update is re-grounding the engine
// right now. Queries remain fully served while it is true.
func (s *Server) Updating() bool { return s.eng.Updating() }

// Metrics snapshots the server's counters.
func (s *Server) Metrics() ServerMetrics { return s.counters.Snapshot() }

// Close stops admission (subsequent queries return ErrServerClosed) and
// waits for queued and in-flight queries to finish. The result cache is
// derived state and dies with the server: a restarted server recomputes
// its working set on the recovered epoch.
func (s *Server) Close() {
	s.sched.Close()
}

// admit canonicalizes the query options and enforces the per-query budget
// caps: explicit over-asks are rejected with a typed *server.BudgetError,
// defaulted budgets are clamped down to the caps (the same clamp-to-budget
// discipline internal/search applies to the hybrid fallback's flip
// budget).
func (s *Server) admit(k *queryKind, opts InferOptions) (InferOptions, error) {
	o := opts.withDefaults()
	if err := k.capBudget(s, opts, &o); err != nil {
		s.counters.RejectedBudget.Add(1)
		return o, err
	}
	if cap := s.cfg.MaxBytesPerQuery; cap > 0 {
		if est := k.memBytes(s, o); est > cap {
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

// InferMAP answers one MAP query through the admission layer: budget
// checks, cache lookup, scheduling, execution, cache fill. The result is
// bit-identical to Engine.InferMAP with the same options. Rejections
// return typed errors (ErrQueueFull, ErrBudgetExceeded, ErrExpiredInQueue,
// ErrServerClosed); a query canceled mid-run returns its best-so-far
// result with ErrCanceled, exactly like the Engine, and is not cached.
func (s *Server) InferMAP(ctx context.Context, opts InferOptions) (*MAPResult, error) {
	r, err := s.infer(ctx, mapKind, opts)
	res, _ := r.(*MAPResult)
	return res, err
}

// InferMarginal is the marginal-inference counterpart of InferMAP, with
// the same admission, caching and rejection semantics.
func (s *Server) InferMarginal(ctx context.Context, opts InferOptions) (*MarginalResult, error) {
	r, err := s.infer(ctx, marginalKind, opts)
	res, _ := r.(*MarginalResult)
	return res, err
}

// infer is the one query path: admit, look the answer up, schedule,
// execute, fill the cache.
func (s *Server) infer(ctx context.Context, k *queryKind, opts InferOptions) (result, error) {
	opts, err := s.admit(k, opts)
	if err != nil {
		return nil, err
	}
	base := k.key(opts)
	if opts.Tracker != nil {
		// A Tracker needs a real run to observe; the query skips the lookup
		// but still fills the cache.
		s.counters.CacheMisses.Add(1)
	} else if v, ok := s.cache.Get(epochKey(s.generation(), base)); ok {
		return v.(result).clone(), nil
	}
	if s.cfg.MaxQueryTime > 0 {
		// The deadline covers queue wait too: a query that waited its
		// whole budget expires in the queue instead of starting late.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.MaxQueryTime)
		defer cancel()
	}
	var res result
	var runErr error
	if err := s.sched.Submit(ctx, func() { res, runErr = k.run(ctx, s.eng, opts) }); err != nil {
		return nil, err
	}
	// Only a complete (non-canceled) answer is cached, under the epoch it
	// was computed on; with the cache disabled the caller keeps the sole
	// reference, so no defensive copy.
	if runErr == nil && res != nil && s.cache.Enabled() {
		s.cache.Put(epochKey(res.epoch(), base), res)
		res = res.clone()
	}
	return res, runErr
}

// UpdateEvidence applies one evidence delta to the engine and sweeps the
// result-cache entries the new epoch superseded. Queries keep flowing the
// whole time (in-flight ones finish on the epoch they started on). A
// failed update leaves the engine serving its previous epoch, so the
// caller can simply retry the same delta.
func (s *Server) UpdateEvidence(ctx context.Context, delta mln.Delta) (*UpdateResult, error) {
	s.updateMu.Lock()
	defer s.updateMu.Unlock()
	ur, err := s.eng.UpdateEvidence(ctx, delta)
	if err != nil {
		return nil, err
	}
	// Drop the entries whose epoch tag is no longer served. An identical
	// (no-op) update keeps the epoch, so everything current is retained.
	prefix := epochKey(s.generation(), "")
	inv, ret := s.cache.Sweep(func(k string) bool { return strings.HasPrefix(k, prefix) })
	s.counters.Epoch.Store(s.generation())
	s.counters.UpdatesApplied.Add(1)
	s.counters.CacheInvalidated.Add(int64(inv))
	s.counters.CacheRetained.Add(int64(ret))
	return ur, nil
}
