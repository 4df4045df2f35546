package remote

import (
	"context"
	"errors"
	"sync"
	"time"

	"tuffy/internal/wire"
)

// Replica is the coordinator's view of one worker: a small pool of reused
// connections plus health state. Calls retry transient dial/IO failures
// with backoff on a fresh connection; typed worker-side errors (epoch or
// plan mismatch, remote cancellation) are returned as-is — the request
// reached the worker, so retrying the same bytes cannot help.
type Replica struct {
	addr     string
	identity func() wire.Hello
	timeout  time.Duration

	mu        sync.Mutex
	idle      []*wire.Conn
	connected bool
	healthy   bool
	epoch     uint64 // worker's last observed generation
	inFlight  int64
	lastErr   error

	// opMu serializes evidence operations (live fan-out and catch-up
	// replay) so deltas always reach the worker in journal order.
	opMu sync.Mutex
}

// callAttempts bounds transient-failure retries per call; backoff doubles
// from callBackoff between attempts.
const (
	callAttempts = 3
	callBackoff  = 15 * time.Millisecond
	maxIdleConns = 4
)

// Addr returns the worker address.
func (r *Replica) Addr() string { return r.addr }

// Healthy reports whether the replica served its last probe or call.
func (r *Replica) Healthy() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.healthy
}

// Epoch returns the worker's last observed generation.
func (r *Replica) Epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// transient reports whether err is a dial/IO-level failure worth retrying
// on a fresh connection, as opposed to a typed answer from the worker.
func transient(err error) bool {
	if err == nil {
		return false
	}
	var em *wire.EpochMismatchError
	var pm *wire.PlanMismatchError
	var re *wire.RemoteError
	switch {
	case errors.As(err, &em), errors.As(err, &pm), errors.As(err, &re),
		errors.Is(err, wire.ErrRemoteCanceled),
		errors.Is(err, wire.ErrIdentityMismatch),
		errors.Is(err, wire.ErrVersionMismatch),
		errors.Is(err, wire.ErrBadPayload),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return false
	}
	return true
}

// getConn pops an idle connection or dials a new one (with handshake).
func (r *Replica) getConn(ctx context.Context) (*wire.Conn, error) {
	r.mu.Lock()
	if n := len(r.idle); n > 0 {
		c := r.idle[n-1]
		r.idle = r.idle[:n-1]
		r.mu.Unlock()
		return c, nil
	}
	r.mu.Unlock()
	c, err := wire.Dial(ctx, r.addr, r.identity())
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.connected = true
	r.mu.Unlock()
	return c, nil
}

func (r *Replica) putConn(c *wire.Conn) {
	r.mu.Lock()
	if len(r.idle) < maxIdleConns {
		r.idle = append(r.idle, c)
		r.mu.Unlock()
		return
	}
	r.mu.Unlock()
	c.Close()
}

// call performs one request/response exchange, retrying transient
// failures on fresh connections with backoff. Health state is updated on
// the way out: a final transient failure marks the replica unhealthy; a
// successful exchange marks it healthy.
func (r *Replica) call(ctx context.Context, typ byte, payload []byte, want byte) ([]byte, error) {
	if r.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.timeout)
		defer cancel()
	}
	r.mu.Lock()
	r.inFlight++
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		r.inFlight--
		r.mu.Unlock()
	}()

	var err error
	for attempt := 0; attempt < callAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return nil, context.Cause(ctx)
			case <-time.After(callBackoff << (attempt - 1)):
			}
		}
		var c *wire.Conn
		c, err = r.getConn(ctx)
		if err != nil {
			if transient(err) {
				continue
			}
			r.fail(err)
			return nil, err
		}
		var reply []byte
		reply, err = c.Roundtrip(ctx, typ, payload, want)
		if err == nil {
			r.putConn(c)
			r.ok()
			return reply, nil
		}
		// Any error poisons the connection: even for typed worker errors
		// the session itself is fine, but after a deadline-driven failure
		// the stream may hold a late reply, so only a clean exchange
		// returns a connection to the pool.
		c.Close()
		if !transient(err) {
			// The worker answered; it is alive. Epoch mismatches update our
			// view of its generation.
			var em *wire.EpochMismatchError
			if errors.As(err, &em) {
				r.mu.Lock()
				r.epoch = em.Have
				r.mu.Unlock()
			}
			r.ok()
			return nil, err
		}
	}
	r.fail(err)
	return nil, err
}

func (r *Replica) ok() {
	r.mu.Lock()
	r.healthy = true
	r.lastErr = nil
	r.mu.Unlock()
}

func (r *Replica) fail(err error) {
	r.mu.Lock()
	r.healthy = false
	r.connected = false
	r.lastErr = err
	idle := r.idle
	r.idle = nil
	r.mu.Unlock()
	for _, c := range idle {
		c.Close()
	}
}

// deadlineMillis converts a context deadline to the wire's millisecond
// field (0 = none), clamped to at least 1ms when a deadline exists.
func deadlineMillis(ctx context.Context) uint32 {
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

// Infer runs one shard request on this worker, under what is left of the
// query's deadline.
func (r *Replica) Infer(ctx context.Context, req wire.ShardRequest) (wire.ShardResult, error) {
	req.DeadlineMillis = deadlineMillis(ctx)
	reply, err := r.call(ctx, wire.TypeInfer, req.Encode(), wire.TypeInferReply)
	if err != nil {
		return wire.ShardResult{}, err
	}
	res, err := wire.DecodeShardResult(reply)
	if err != nil {
		return wire.ShardResult{}, err
	}
	r.mu.Lock()
	r.epoch = res.Epoch
	r.mu.Unlock()
	return res, nil
}

// Update applies one encoded delta on this worker.
func (r *Replica) Update(ctx context.Context, delta []byte) (wire.UpdateAck, error) {
	req := wire.UpdateRequest{DeadlineMillis: deadlineMillis(ctx), Delta: delta}
	reply, err := r.call(ctx, wire.TypeUpdate, req.Encode(), wire.TypeUpdateAck)
	if err != nil {
		return wire.UpdateAck{}, err
	}
	ack, err := wire.DecodeUpdateAck(reply)
	if err != nil {
		return wire.UpdateAck{}, err
	}
	r.mu.Lock()
	r.epoch = ack.Epoch
	r.mu.Unlock()
	return ack, nil
}

// Ping probes the worker and refreshes its observed epoch.
func (r *Replica) Ping(ctx context.Context) (wire.StatsReply, error) {
	reply, err := r.call(ctx, wire.TypePing, nil, wire.TypePong)
	if err != nil {
		return wire.StatsReply{}, err
	}
	st, err := wire.DecodeStatsReply(reply)
	if err != nil {
		return wire.StatsReply{}, err
	}
	r.mu.Lock()
	r.epoch = st.Epoch
	r.mu.Unlock()
	return st, nil
}

// close drops all idle connections.
func (r *Replica) close() {
	r.mu.Lock()
	idle := r.idle
	r.idle = nil
	r.connected = false
	r.mu.Unlock()
	for _, c := range idle {
		c.Close()
	}
}
