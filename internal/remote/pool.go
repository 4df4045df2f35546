package remote

import (
	"context"
	"fmt"
	"sync"
	"time"

	"tuffy/internal/wire"
)

// PoolConfig configures the coordinator-side worker pool.
type PoolConfig struct {
	// Addrs are the worker addresses (host:port).
	Addrs []string
	// Identity supplies the coordinator's handshake (fingerprints + current
	// epoch) — a func because the epoch advances with evidence updates.
	Identity func() wire.Hello
	// CallTimeout caps each remote call (default 30s).
	CallTimeout time.Duration
	// ProbeEvery is the health-probe cadence (default 250ms).
	ProbeEvery time.Duration
	// JournalCap bounds the delta catch-up journal (default 1024 entries);
	// a worker lagging past the cap can no longer be caught up and stays
	// out of membership until restarted in sync.
	JournalCap int
}

func (c PoolConfig) withDefaults() PoolConfig {
	if c.CallTimeout <= 0 {
		c.CallTimeout = 30 * time.Second
	}
	if c.ProbeEvery <= 0 {
		c.ProbeEvery = 250 * time.Millisecond
	}
	if c.JournalCap <= 0 {
		c.JournalCap = 1024
	}
	return c
}

// WorkerStatus is one worker's row in /healthz and /metrics.
type WorkerStatus struct {
	Addr      string `json:"addr"`
	Connected bool   `json:"connected"`
	Healthy   bool   `json:"healthy"`
	Epoch     uint64 `json:"epoch"`
	InFlight  int64  `json:"inFlight"`
	LastErr   string `json:"lastErr,omitempty"`
}

// Pool manages the coordinator's worker membership: it probes workers on
// a cadence, gates shard dispatch on health and epoch agreement, fans
// evidence deltas out, and replays its journal to catch lagging or
// restarted workers up. A dead worker degrades capacity — the sharder
// falls back to surviving workers or the local engine — and rejoins
// automatically once probes see it healthy and current again.
type Pool struct {
	cfg      PoolConfig
	replicas []*Replica

	mu       sync.Mutex
	journal  [][]byte // encoded deltas in application order
	dropped  int      // journal entries discarded by the cap
	truncErr error

	stop   chan struct{}
	wg     sync.WaitGroup
	closed sync.Once
}

// NewPool creates the pool and starts its probe loop. Workers are dialed
// lazily; call ProbeNow for a synchronous first probe round.
func NewPool(cfg PoolConfig) *Pool {
	cfg = cfg.withDefaults()
	p := &Pool{cfg: cfg, stop: make(chan struct{})}
	for _, addr := range cfg.Addrs {
		p.replicas = append(p.replicas, &Replica{
			addr:     addr,
			identity: cfg.Identity,
			timeout:  cfg.CallTimeout,
		})
	}
	p.wg.Add(1)
	go p.probeLoop()
	return p
}

// Replicas returns all configured replicas.
func (p *Pool) Replicas() []*Replica { return p.replicas }

// Candidates returns the replicas eligible for shard dispatch at the
// given epoch: healthy and last observed at exactly that generation. The
// worker-side epoch guard is the authoritative check; this gate just
// avoids dispatching work that is known to bounce.
func (p *Pool) Candidates(epoch uint64) []*Replica {
	var out []*Replica
	for _, r := range p.replicas {
		r.mu.Lock()
		ok := r.healthy && r.epoch == epoch
		r.mu.Unlock()
		if ok {
			out = append(out, r)
		}
	}
	return out
}

// Status snapshots every worker's row.
func (p *Pool) Status() []WorkerStatus {
	out := make([]WorkerStatus, 0, len(p.replicas))
	for _, r := range p.replicas {
		r.mu.Lock()
		st := WorkerStatus{
			Addr:      r.addr,
			Connected: r.connected,
			Healthy:   r.healthy,
			Epoch:     r.epoch,
			InFlight:  r.inFlight,
		}
		if r.lastErr != nil {
			st.LastErr = r.lastErr.Error()
		}
		r.mu.Unlock()
		out = append(out, st)
	}
	return out
}

// Update journals one applied delta and fans it out to every replica in
// parallel. Worker failures never fail the update — the local engine has
// already committed it; a worker that misses the delta is demoted and
// caught up by the probe loop. The caller (the serving layer's update
// path) is single-writer, so journal order is application order.
func (p *Pool) Update(ctx context.Context, delta []byte) {
	p.mu.Lock()
	p.journal = append(p.journal, delta)
	if len(p.journal) > p.cfg.JournalCap {
		n := len(p.journal) - p.cfg.JournalCap
		p.journal = append([][]byte(nil), p.journal[n:]...)
		p.dropped += n
		p.truncErr = fmt.Errorf("remote: catch-up journal truncated (%d deltas dropped)", p.dropped)
	}
	p.mu.Unlock()

	var wg sync.WaitGroup
	for _, r := range p.replicas {
		if !r.Healthy() {
			continue // probe loop owns catch-up for demoted workers
		}
		wg.Add(1)
		go func(r *Replica) {
			defer wg.Done()
			r.opMu.Lock()
			defer r.opMu.Unlock()
			if _, err := r.Update(ctx, delta); err != nil {
				r.fail(fmt.Errorf("remote: update fan-out: %w", err))
			}
		}(r)
	}
	wg.Wait()
}

// ProbeNow runs one synchronous probe round: ping every replica in
// parallel, and replay the journal to any worker observed behind the
// coordinator's current epoch.
func (p *Pool) ProbeNow(ctx context.Context) {
	var wg sync.WaitGroup
	for _, r := range p.replicas {
		wg.Add(1)
		go func(r *Replica) {
			defer wg.Done()
			p.probeOne(ctx, r)
		}(r)
	}
	wg.Wait()
}

func (p *Pool) probeOne(ctx context.Context, r *Replica) {
	if _, err := r.Ping(ctx); err != nil {
		return // fail() already recorded it
	}
	want := p.cfg.Identity().Epoch
	if r.Epoch() == want {
		return
	}
	// The worker answered but serves another generation: replay the full
	// journal in order. Deltas set absolute truth values, so entries the
	// worker already applied replay as no-ops — replaying from the start
	// needs no per-worker bookkeeping and is correct for restarted workers
	// too. The journal snapshot is taken under opMu, so a concurrent live
	// fan-out cannot interleave out of order.
	r.opMu.Lock()
	defer r.opMu.Unlock()
	p.mu.Lock()
	entries := p.journal
	truncated := p.truncErr
	p.mu.Unlock()
	for _, delta := range entries {
		if _, err := r.Update(ctx, delta); err != nil {
			r.fail(fmt.Errorf("remote: catch-up replay: %w", err))
			return
		}
	}
	want = p.cfg.Identity().Epoch
	if got := r.Epoch(); got != want {
		// The full journal was not enough (entries were dropped by the cap,
		// or the worker diverged). Keep it out of membership.
		err := fmt.Errorf("remote: worker at epoch %d after catch-up, coordinator at %d", got, want)
		if truncated != nil {
			err = fmt.Errorf("%v (%v)", err, truncated)
		}
		r.fail(err)
	}
}

func (p *Pool) probeLoop() {
	defer p.wg.Done()
	t := time.NewTicker(p.cfg.ProbeEvery)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			ctx, cancel := context.WithTimeout(context.Background(), p.cfg.CallTimeout)
			p.ProbeNow(ctx)
			cancel()
		}
	}
}

// Close stops the probe loop and drops all connections.
func (p *Pool) Close() {
	p.closed.Do(func() { close(p.stop) })
	p.wg.Wait()
	for _, r := range p.replicas {
		r.close()
	}
}
