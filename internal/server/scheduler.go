// Package server is the query admission and scheduling layer that fronts
// a grounded Engine (the heavy-traffic layer the ROADMAP names on top of
// the paper's ground-then-query architecture): a bounded FIFO admission
// queue, a fixed cap on in-flight queries, per-query budget enforcement
// with typed rejection errors, an epoch-keyed result cache (entries are
// tagged with the Engine epoch that produced them and swept when an
// evidence update publishes a new epoch), and counters for every stage of
// a query's life. The package is engine-agnostic: it schedules opaque
// closures, and the public tuffy.Serve API layers Engine dispatch, budget
// derivation, cache keys and update-time cache sweeps on top.
package server

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// taskState tracks who owns a queued task: exactly one of the claiming
// worker or the abandoning submitter wins the CAS from taskQueued.
const (
	taskQueued int32 = iota
	taskClaimed
	taskAbandoned
)

// task is one admitted query waiting for (or holding) an execution slot.
type task struct {
	run      func()
	state    atomic.Int32
	enqueued time.Time
	finished chan struct{}
}

// SchedulerConfig bounds the scheduler.
type SchedulerConfig struct {
	// Workers is the maximum number of queries running at once (the
	// in-flight cap). Default 4.
	Workers int
	// MaxQueue bounds the number of admitted-but-waiting queries; a Submit
	// beyond it is rejected with ErrQueueFull. Default 64.
	MaxQueue int
}

func (c SchedulerConfig) withDefaults() SchedulerConfig {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	return c
}

// Scheduler runs submitted closures through a fixed worker pool, admitting
// them through one bounded FIFO queue. All methods are safe for concurrent
// use.
type Scheduler struct {
	cfg     SchedulerConfig
	metrics *Counters

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*task
	closed bool
	wg     sync.WaitGroup
}

// NewScheduler starts the worker pool.
func NewScheduler(cfg SchedulerConfig, m *Counters) *Scheduler {
	cfg = cfg.withDefaults()
	if m == nil {
		m = &Counters{}
	}
	s := &Scheduler{cfg: cfg, metrics: m}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Submit admits run at the tail of the queue and blocks until it has
// executed or ctx is done.
//
//   - A full queue rejects immediately with ErrQueueFull — admission
//     control sheds load instead of applying unbounded backpressure.
//   - A context done while the task is still queued abandons it (it never
//     runs) and returns a *QueueExpiredError recording the wait.
//   - Once a worker claims the task, Submit waits for it to finish even if
//     ctx fires — run is expected to honor the same ctx and return
//     promptly with its own cancellation error.
//
// A nil return means run was executed; run communicates its own outcome
// through captured variables.
func (s *Scheduler) Submit(ctx context.Context, run func()) error {
	t := &task{run: run, enqueued: time.Now(), finished: make(chan struct{})}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrServerClosed
	}
	if len(s.queue) >= s.cfg.MaxQueue {
		s.mu.Unlock()
		s.metrics.RejectedQueue.Add(1)
		return ErrQueueFull
	}
	s.queue = append(s.queue, t)
	s.metrics.Admitted.Add(1)
	s.metrics.Queued.Add(1)
	s.cond.Signal()
	s.mu.Unlock()

	select {
	case <-t.finished:
		return nil
	case <-ctx.Done():
		if t.state.CompareAndSwap(taskQueued, taskAbandoned) {
			// The task never ran. Remove it from the queue right away —
			// under saturation (all workers busy for a long time) expired
			// tasks would otherwise pile up with nothing draining them and
			// count against queue-full admission.
			s.mu.Lock()
			for i, q := range s.queue {
				if q == t {
					copy(s.queue[i:], s.queue[i+1:])
					s.queue[len(s.queue)-1] = nil
					s.queue = s.queue[:len(s.queue)-1]
					break
				}
			}
			s.mu.Unlock()
			s.metrics.Queued.Add(-1)
			s.metrics.Expired.Add(1)
			return &QueueExpiredError{Waited: time.Since(t.enqueued), Cause: context.Cause(ctx)}
		}
		// A worker claimed it first: the run sees the canceled ctx itself.
		<-t.finished
		return nil
	}
}

// claimNext pops tasks from the head of the queue until it claims one,
// dropping any whose submitter has already abandoned it (the submitter
// accounts for those). Caller holds s.mu.
func (s *Scheduler) claimNext() *task {
	for len(s.queue) > 0 {
		t := s.queue[0]
		s.queue[0] = nil
		s.queue = s.queue[1:]
		if t.state.CompareAndSwap(taskQueued, taskClaimed) {
			return t
		}
	}
	return nil
}

func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		var t *task
		for {
			if t = s.claimNext(); t != nil || s.closed {
				break
			}
			s.cond.Wait()
		}
		s.mu.Unlock()
		if t == nil {
			return // closed and drained
		}

		s.metrics.Queued.Add(-1)
		s.metrics.QueueWaitNanos.Add(time.Since(t.enqueued).Nanoseconds())
		s.metrics.InFlight.Add(1)
		start := time.Now()
		t.run()
		s.metrics.LatencyNanos.Add(time.Since(start).Nanoseconds())
		s.metrics.InFlight.Add(-1)
		s.metrics.Completed.Add(1)
		close(t.finished)
	}
}

// Close stops admission, lets the workers drain every task already queued
// (their submitters are still waiting on them), and returns once the pool
// has exited. Close is idempotent.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	s.wg.Wait()
}
