package server

import (
	"sync/atomic"
	"time"
)

// Counters is the scheduler's live instrumentation: lock-free atomics
// bumped on the query path, snapshotted on demand. The scheduler owns the
// admission/queue/latency counters; the serving layer on top bumps the
// budget and cache counters.
type Counters struct {
	Admitted       atomic.Int64 // queries accepted into the queue
	RejectedQueue  atomic.Int64 // rejected: admission queue full
	RejectedBudget atomic.Int64 // rejected: per-query budget exceeded
	Expired        atomic.Int64 // abandoned in queue (ctx done before a slot freed)
	Completed      atomic.Int64 // queries that ran to completion (incl. canceled runs)
	CacheHits      atomic.Int64
	CacheMisses    atomic.Int64

	Queued   atomic.Int64 // gauge: admitted, waiting for a slot
	InFlight atomic.Int64 // gauge: currently executing

	QueueWaitNanos atomic.Int64 // total admission-to-claim wait
	LatencyNanos   atomic.Int64 // total execution time

	Epoch            atomic.Uint64 // gauge: epoch currently served
	UpdatesApplied   atomic.Int64  // evidence updates committed on all backends
	CacheInvalidated atomic.Int64  // cache entries swept by evidence updates
	CacheRetained    atomic.Int64  // cache entries surviving update sweeps
}

// Metrics is a point-in-time snapshot of the Counters, the programmatic
// metrics surface (cmd/tuffyd serializes it as JSON).
type Metrics struct {
	Admitted       int64 `json:"admitted"`
	RejectedQueue  int64 `json:"rejectedQueueFull"`
	RejectedBudget int64 `json:"rejectedBudget"`
	Expired        int64 `json:"expiredInQueue"`
	Completed      int64 `json:"completed"`
	Batched        int64 `json:"batched"` // always 0; kept while benchmark/serve.go:698 reads it
	CacheHits      int64 `json:"cacheHits"`
	CacheMisses    int64 `json:"cacheMisses"`

	Queued   int64 `json:"queued"`
	InFlight int64 `json:"inFlight"`

	QueueWait time.Duration `json:"queueWaitTotalNs"`
	Latency   time.Duration `json:"latencyTotalNs"`

	Epoch            uint64 `json:"epoch"`
	UpdatesApplied   int64  `json:"updatesApplied"`
	CacheInvalidated int64  `json:"cacheInvalidated"`
	CacheRetained    int64  `json:"cacheRetained"`
}

// Snapshot reads every counter. The fields are read individually (not as
// one atomic unit), which is all a monitoring surface needs.
func (c *Counters) Snapshot() Metrics {
	return Metrics{
		Admitted:       c.Admitted.Load(),
		RejectedQueue:  c.RejectedQueue.Load(),
		RejectedBudget: c.RejectedBudget.Load(),
		Expired:        c.Expired.Load(),
		Completed:      c.Completed.Load(),
		CacheHits:      c.CacheHits.Load(),
		CacheMisses:    c.CacheMisses.Load(),
		Queued:         c.Queued.Load(),
		InFlight:       c.InFlight.Load(),
		QueueWait:      time.Duration(c.QueueWaitNanos.Load()),
		Latency:        time.Duration(c.LatencyNanos.Load()),

		Epoch:            c.Epoch.Load(),
		UpdatesApplied:   c.UpdatesApplied.Load(),
		CacheInvalidated: c.CacheInvalidated.Load(),
		CacheRetained:    c.CacheRetained.Load(),
	}
}

// AvgQueueWait is the mean admission-to-claim wait per executed query.
func (m Metrics) AvgQueueWait() time.Duration {
	if m.Completed > 0 {
		return m.QueueWait / time.Duration(m.Completed)
	}
	return 0
}

// AvgLatency is the mean execution time per executed query. Cache hits
// never consume an execution slot and are excluded, so the average keeps
// estimating the cost of a real inference run (the Retry-After heuristic
// in cmd/tuffyd depends on that).
func (m Metrics) AvgLatency() time.Duration {
	if m.Completed == 0 {
		return 0
	}
	return m.Latency / time.Duration(m.Completed)
}
