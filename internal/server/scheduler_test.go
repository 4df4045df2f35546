package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// gate blocks the scheduler's single worker until released, so tests can
// stage the queue deterministically.
type gate struct {
	entered chan struct{}
	release chan struct{}
}

func newGate() *gate {
	return &gate{entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gate) run() {
	close(g.entered)
	<-g.release
}

// waitQueued polls until n tasks wait in the queue.
func waitQueued(t *testing.T, c *Counters, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if c.Queued.Load() == n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("queue never reached %d tasks (at %d)", n, c.Queued.Load())
}

// With one worker, queued tasks must run in admission order.
func TestSchedulerFIFO(t *testing.T) {
	m := &Counters{}
	s := NewScheduler(SchedulerConfig{Workers: 1, MaxQueue: 16}, m)
	defer s.Close()

	g := newGate()
	go s.Submit(context.Background(), g.run)
	<-g.entered

	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	const n = 5
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Submit(context.Background(), func() {
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
			}); err != nil {
				t.Errorf("submit %d: %v", i, err)
			}
		}()
		waitQueued(t, m, int64(i+1)) // admit one at a time to fix the order
	}
	close(g.release)
	wg.Wait()

	want := []int{0, 1, 2, 3, 4}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("execution order %v, want %v", order, want)
	}
}

// A full admission queue must reject instantly with ErrQueueFull, and a
// freed slot must admit again.
func TestSchedulerRejectsWhenQueueFull(t *testing.T) {
	m := &Counters{}
	s := NewScheduler(SchedulerConfig{Workers: 1, MaxQueue: 2}, m)
	defer s.Close()

	g := newGate()
	go s.Submit(context.Background(), g.run)
	<-g.entered

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = s.Submit(context.Background(), func() {})
		}()
	}
	waitQueued(t, m, 2)

	start := time.Now()
	err := s.Submit(context.Background(), func() { t.Error("rejected task ran") })
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if time.Since(start) > time.Second {
		t.Fatalf("rejection took %v; admission control must not block", time.Since(start))
	}
	if got := m.RejectedQueue.Load(); got != 1 {
		t.Fatalf("RejectedQueue = %d, want 1", got)
	}

	close(g.release)
	wg.Wait()
	// The drained queue must admit again.
	if err := s.Submit(context.Background(), func() {}); err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
}

// A context done while the task still waits must abandon it: the task
// never runs, the error is typed, and the freed capacity readmits.
func TestSchedulerDeadlineExpiryInQueue(t *testing.T) {
	m := &Counters{}
	s := NewScheduler(SchedulerConfig{Workers: 1, MaxQueue: 1}, m)
	defer s.Close()

	g := newGate()
	go s.Submit(context.Background(), g.run)
	<-g.entered

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	ran := false
	err := s.Submit(ctx, func() { ran = true })
	var qe *QueueExpiredError
	if !errors.As(err, &qe) {
		t.Fatalf("err = %T %v, want *QueueExpiredError", err, err)
	}
	if !errors.Is(err, ErrExpiredInQueue) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err %v must match ErrExpiredInQueue and DeadlineExceeded", err)
	}
	if qe.Waited <= 0 {
		t.Fatalf("expired error records no wait: %+v", qe)
	}
	if ran {
		t.Fatal("expired task ran")
	}
	if got := m.Expired.Load(); got != 1 {
		t.Fatalf("Expired = %d, want 1", got)
	}
	// The abandoned task must leave the queue immediately — under
	// saturation expired tasks must not pile up waiting for a free worker
	// to sweep them.
	s.mu.Lock()
	queueLen := len(s.queue)
	s.mu.Unlock()
	if queueLen != 0 {
		t.Fatalf("queue holds %d entries after expiry, want 0", queueLen)
	}

	// The abandoned slot must be free for a fresh admission while the
	// worker is still busy.
	admitted := make(chan error, 1)
	go func() { admitted <- s.Submit(context.Background(), func() {}) }()
	waitQueued(t, m, 1)
	close(g.release)
	if err := <-admitted; err != nil {
		t.Fatalf("admission after expiry: %v", err)
	}
	// The worker must discard the abandoned task without running it.
	if ran {
		t.Fatal("abandoned task ran after release")
	}
}

// Close must stop admission, drain already-queued tasks, and be
// idempotent.
func TestSchedulerCloseDrains(t *testing.T) {
	m := &Counters{}
	s := NewScheduler(SchedulerConfig{Workers: 2, MaxQueue: 8}, m)

	var mu sync.Mutex
	n := 0
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = s.Submit(context.Background(), func() {
				time.Sleep(5 * time.Millisecond)
				mu.Lock()
				n++
				mu.Unlock()
			})
		}()
	}
	// Wait until every task has been admitted, then close mid-flight.
	deadline := time.Now().Add(5 * time.Second)
	for m.Admitted.Load() < 6 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	s.Close()
	wg.Wait()
	mu.Lock()
	got := n
	mu.Unlock()
	if got != 6 {
		t.Fatalf("Close drained %d of 6 tasks", got)
	}
	if err := s.Submit(context.Background(), func() {}); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("post-Close submit: %v, want ErrServerClosed", err)
	}
	s.Close() // idempotent
}

// Wait metrics must accumulate: a task held in queue records its wait.
func TestSchedulerQueueWaitMetric(t *testing.T) {
	m := &Counters{}
	s := NewScheduler(SchedulerConfig{Workers: 1, MaxQueue: 4}, m)
	defer s.Close()

	g := newGate()
	go s.Submit(context.Background(), g.run)
	<-g.entered

	done := make(chan error, 1)
	go func() { done <- s.Submit(context.Background(), func() {}) }()
	waitQueued(t, m, 1)
	time.Sleep(15 * time.Millisecond)
	close(g.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if snap.QueueWait < 10*time.Millisecond {
		t.Fatalf("queue wait %v, want >= 10ms", snap.QueueWait)
	}
	if snap.Completed != 2 || snap.Admitted != 2 {
		t.Fatalf("completed/admitted = %d/%d, want 2/2", snap.Completed, snap.Admitted)
	}
	if snap.AvgQueueWait() <= 0 || snap.AvgLatency() < 0 {
		t.Fatalf("derived metrics broken: %+v", snap)
	}
}
