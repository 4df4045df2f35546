package tuffy

// Tests of the serving layer: N concurrent clients through tuffy.Serve
// must get answers bit-identical to direct Engine calls (cache on and
// off), the queue rejects and expires with typed errors, and the cache
// canonicalizes options. What holds per kind of inference — admission
// caps, cache hits, batching, sharding — is in kinds_test.go. The CI race
// job runs this package with -race.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// serveWorkload is a mixed MAP/marginal query set with distinct answers.
func serveWorkload() []Request {
	reqs := []Request{
		{Options: InferOptions{Mode: Auto, MaxFlips: 8_000, Seed: 1}},
		{Options: InferOptions{Mode: Auto, MaxFlips: 8_000, Seed: 2}, Priority: 1},
		{Options: InferOptions{Mode: InMemoryMonolithic, MaxFlips: 8_000, Seed: 3}, Priority: 2},
		{Options: InferOptions{Mode: InDatabase, MaxFlips: 60, Seed: 4}},
		{Options: InferOptions{Mode: Auto, MaxFlips: 8_000, Seed: 5}, Priority: 1},
	}
	return reqs
}

func mapKey(r *MAPResult) string {
	return fmt.Sprintf("%v|%d|%v", r.Cost, r.Flips, r.State)
}

// Direct Engine answers are the reference; every response the server
// produces — scheduled, queued or cached — must match them bit for bit.
func TestServerBitIdenticalToDirectEngine(t *testing.T) {
	ctx := context.Background()
	eng := figure1Engine(t, EngineConfig{})
	if err := eng.Ground(ctx); err != nil {
		t.Fatal(err)
	}
	reqs := serveWorkload()
	margReq := Request{Options: InferOptions{Samples: 120, Seed: 9}}

	wantMAP := make(map[int]string)
	for i, r := range reqs {
		res, err := eng.InferMAP(ctx, r.Options)
		if err != nil {
			t.Fatal(err)
		}
		wantMAP[i] = mapKey(res)
	}
	wantMarg, err := eng.InferMarginal(ctx, margReq.Options)
	if err != nil {
		t.Fatal(err)
	}

	for _, cacheEntries := range []int{0 /* default cache on */, -1 /* off */} {
		name := "cache-on"
		if cacheEntries < 0 {
			name = "cache-off"
		}
		t.Run(name, func(t *testing.T) {
			srv, err := Serve(ServerConfig{MaxInFlight: 4, MaxQueue: 256, CacheEntries: cacheEntries}, eng)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			const clients = 8
			const rounds = 3
			var wg sync.WaitGroup
			errCh := make(chan error, clients)
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for round := 0; round < rounds; round++ {
						for i, r := range reqs {
							// Stagger the order per client so queries
							// collide in every combination.
							i = (i + c + round) % len(reqs)
							r = reqs[i]
							res, err := srv.InferMAP(ctx, r)
							if err != nil {
								errCh <- fmt.Errorf("client %d req %d: %w", c, i, err)
								return
							}
							if got := mapKey(res); got != wantMAP[i] {
								errCh <- fmt.Errorf("client %d req %d: served answer diverges from direct engine call", c, i)
								return
							}
						}
						mres, err := srv.InferMarginal(ctx, margReq)
						if err != nil {
							errCh <- fmt.Errorf("client %d marginal: %w", c, err)
							return
						}
						for j := range wantMarg.Probs {
							if mres.Probs[j].P != wantMarg.Probs[j].P {
								errCh <- fmt.Errorf("client %d: marginal %d diverges", c, j)
								return
							}
						}
					}
				}(c)
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Fatal(err)
			}

			m := srv.Metrics()
			total := int64(clients * rounds * (len(reqs) + 1))
			// Every issued query is answered exactly once: by a real run, by
			// absorbing a batched leader's run, or from cache.
			if m.Completed+m.Batched+m.CacheHits != total {
				t.Fatalf("completed %d + batched %d + cache hits %d != %d issued queries",
					m.Completed, m.Batched, m.CacheHits, total)
			}
			if cacheEntries < 0 {
				if m.CacheHits != 0 {
					t.Fatalf("cache disabled but %d hits", m.CacheHits)
				}
				if m.Completed+m.Batched != total {
					t.Fatalf("cache off: completed %d + batched %d, want %d", m.Completed, m.Batched, total)
				}
			} else if m.CacheHits == 0 {
				t.Fatal("cache on: repeated identical queries produced no hits")
			}
			if m.RejectedQueue != 0 || m.RejectedBudget != 0 || m.Expired != 0 {
				t.Fatalf("unexpected rejections: %+v", m)
			}
		})
	}
}

// Serve must refuse engines that are not grounded yet (admission needs
// the clause counts, and grounding inside the server would be a hidden
// expensive phase).
func TestServeRequiresGroundedEngine(t *testing.T) {
	eng := figure1Engine(t, EngineConfig{})
	if _, err := Serve(ServerConfig{}, eng); err == nil {
		t.Fatal("Serve accepted an ungrounded engine")
	}
	if _, err := Serve(ServerConfig{}); err == nil {
		t.Fatal("Serve accepted zero engines")
	}
}

// Queue-full and expired-in-queue must surface through the public API as
// their typed errors, staged deterministically via the metrics gauges.
func TestServerQueueRejectionAndExpiry(t *testing.T) {
	ctx := context.Background()
	eng := contradictionEngine(t, EngineConfig{})
	if err := eng.Ground(ctx); err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(ServerConfig{MaxInFlight: 1, MaxQueue: 1, CacheEntries: -1}, eng)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Occupy the only slot with an effectively unbounded query.
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	running := make(chan error, 1)
	go func() {
		_, err := srv.InferMAP(runCtx, Request{Options: InferOptions{MaxFlips: 1 << 40, Seed: 1}})
		running <- err
	}()
	waitMetric(t, srv, "in-flight", func(m ServerMetrics) int64 { return m.InFlight }, 1)

	// Fill the single queue slot with a query that will expire there.
	qCtx, cancelQ := context.WithCancel(ctx)
	defer cancelQ()
	queued := make(chan error, 1)
	go func() {
		_, err := srv.InferMAP(qCtx, Request{Options: InferOptions{MaxFlips: 10, Seed: 2}})
		queued <- err
	}()
	waitMetric(t, srv, "queued", func(m ServerMetrics) int64 { return m.Queued }, 1)

	// Third query: queue full, typed rejection.
	if _, err := srv.InferMAP(ctx, Request{Options: InferOptions{MaxFlips: 10, Seed: 3}}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}

	// Cancel the queued query: it must expire in queue without running.
	cancelQ()
	if err := <-queued; !errors.Is(err, ErrExpiredInQueue) {
		t.Fatalf("queued query err = %v, want ErrExpiredInQueue", err)
	}

	// Cancel the running query: engine semantics (best-so-far +
	// ErrCanceled) pass through the server untouched.
	cancelRun()
	if err := <-running; !errors.Is(err, ErrCanceled) {
		t.Fatalf("running query err = %v, want ErrCanceled", err)
	}

	m := srv.Metrics()
	if m.RejectedQueue != 1 || m.Expired != 1 {
		t.Fatalf("metrics after staging: %+v", m)
	}
}

// MaxQueryTime must bound a query's wall clock through the usual context
// plumbing: the answer is the best-so-far state with ErrCanceled.
func TestServerPerQueryDeadline(t *testing.T) {
	ctx := context.Background()
	eng := contradictionEngine(t, EngineConfig{})
	if err := eng.Ground(ctx); err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(ServerConfig{MaxQueryTime: 30 * time.Millisecond, CacheEntries: -1}, eng)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	start := time.Now()
	res, err := srv.InferMAP(ctx, Request{Options: InferOptions{MaxFlips: 1 << 40, Seed: 1}})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if time.Since(start) > time.Second {
		t.Fatalf("deadline took %v to enforce", time.Since(start))
	}
	if res == nil || res.State == nil {
		t.Fatal("deadline-canceled query lost its best-so-far result")
	}
}

// The cache key canonicalizes options: queries differing only in
// Parallelism (whose results are identical by construction) share one
// entry, and a canceled run must never be cached.
func TestServerCacheCanonicalization(t *testing.T) {
	ctx := context.Background()
	eng := figure1Engine(t, EngineConfig{})
	if err := eng.Ground(ctx); err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(ServerConfig{}, eng)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	r1, err := srv.InferMAP(ctx, Request{Options: InferOptions{MaxFlips: 8_000, Seed: 4, Parallelism: 1}})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := srv.InferMAP(ctx, Request{Options: InferOptions{MaxFlips: 8_000, Seed: 4, Parallelism: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if mapKey(r1) != mapKey(r2) {
		t.Fatal("parallelism variants returned different answers")
	}
	if hits := srv.Metrics().CacheHits; hits != 1 {
		t.Fatalf("CacheHits = %d, want 1 (parallelism canonicalized away)", hits)
	}
	// MaxTries 0 and 1 are the same search; they must share an entry too.
	if _, err := srv.InferMAP(ctx, Request{Options: InferOptions{MaxFlips: 8_000, Seed: 4, MaxTries: 1}}); err != nil {
		t.Fatal(err)
	}
	if hits := srv.Metrics().CacheHits; hits != 2 {
		t.Fatalf("CacheHits = %d, want 2 (MaxTries 0/1 canonicalized)", hits)
	}
	// A cached answer is a private copy: mutating it must not poison the
	// cache.
	if len(r2.State) > 0 {
		r2.State[0] = !r2.State[0]
	}
	r3, err := srv.InferMAP(ctx, Request{Options: InferOptions{MaxFlips: 8_000, Seed: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if mapKey(r3) != mapKey(r1) {
		t.Fatal("mutating a served answer corrupted the cache")
	}
}

// A canceled run must not poison the cache: the next identical query
// reruns and returns the full answer.
func TestServerDoesNotCacheCanceledRuns(t *testing.T) {
	ctx := context.Background()
	// Memo off: this engine's components are isomorphic, and memo sharing
	// would finish the search before the timeout below can cancel it.
	eng := contradictionEngine(t, EngineConfig{MemoEntries: -1})
	if err := eng.Ground(ctx); err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(ServerConfig{}, eng)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	req := Request{Options: InferOptions{MaxFlips: 200_000, Seed: 6}}
	cctx, cancel := context.WithTimeout(ctx, 5*time.Millisecond)
	defer cancel()
	if _, err := srv.InferMAP(cctx, req); err == nil {
		t.Fatal("expected cancellation or queue expiry")
	}
	res, err := srv.InferMAP(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.InferMAP(ctx, req.Options)
	if err != nil {
		t.Fatal(err)
	}
	if mapKey(res) != mapKey(want) {
		t.Fatal("post-cancel rerun diverges from direct engine call")
	}
	if hits := srv.Metrics().CacheHits; hits != 0 {
		t.Fatalf("CacheHits = %d; a canceled run must not be cached", hits)
	}
}
