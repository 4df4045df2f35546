package tuffy

// Tests of the serving layer: N concurrent clients through tuffy.Serve
// must get answers bit-identical to direct Engine calls (cache on and
// off), the queue rejects and expires with typed errors, and the cache
// canonicalizes options. What holds per kind of inference — admission
// caps, cache hits, queued queries — is in kinds_test.go. The CI race job
// runs this package with -race.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"tuffy/internal/server"
)

// serveWorkload is a mixed MAP/marginal query set with distinct answers.
func serveWorkload() []InferOptions {
	return []InferOptions{
		{Mode: Auto, MaxFlips: 8_000, Seed: 1},
		{Mode: Auto, MaxFlips: 8_000, Seed: 2},
		{Mode: InMemoryMonolithic, MaxFlips: 8_000, Seed: 3},
		{Mode: InDatabase, MaxFlips: 60, Seed: 4},
		{Mode: Auto, MaxFlips: 8_000, Seed: 5},
	}
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
	margReq := InferOptions{Samples: 120, Seed: 9}

	wantMAP := make(map[int]string)
	for i, r := range reqs {
		res, err := eng.InferMAP(ctx, r)
		if err != nil {
			t.Fatal(err)
		}
		wantMAP[i] = mapKey(res)
	}
	wantMarg, err := eng.InferMarginal(ctx, margReq)
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
			// Every issued query is answered exactly once: by a real run or
			// from cache.
			if m.Completed+m.CacheHits != total {
				t.Fatalf("completed %d + cache hits %d != %d issued queries",
					m.Completed, m.CacheHits, total)
			}
			if cacheEntries < 0 {
				if m.CacheHits != 0 {
					t.Fatalf("cache disabled but %d hits", m.CacheHits)
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
		_, err := srv.InferMAP(runCtx, InferOptions{MaxFlips: 1 << 40, Seed: 1})
		running <- err
	}()
	waitMetric(t, srv, "in-flight", func(m ServerMetrics) int64 { return m.InFlight }, 1)

	// Fill the single queue slot with a query that will expire there.
	qCtx, cancelQ := context.WithCancel(ctx)
	defer cancelQ()
	queued := make(chan error, 1)
	go func() {
		_, err := srv.InferMAP(qCtx, InferOptions{MaxFlips: 10, Seed: 2})
		queued <- err
	}()
	waitMetric(t, srv, "queued", func(m ServerMetrics) int64 { return m.Queued }, 1)

	// Third query: queue full, typed rejection.
	if _, err := srv.InferMAP(ctx, InferOptions{MaxFlips: 10, Seed: 3}); !errors.Is(err, ErrQueueFull) {
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
	res, err := srv.InferMAP(ctx, InferOptions{MaxFlips: 1 << 40, Seed: 1})
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

	r1, err := srv.InferMAP(ctx, InferOptions{MaxFlips: 8_000, Seed: 4, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := srv.InferMAP(ctx, InferOptions{MaxFlips: 8_000, Seed: 4, Parallelism: 4})
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
	if _, err := srv.InferMAP(ctx, InferOptions{MaxFlips: 8_000, Seed: 4, MaxTries: 1}); err != nil {
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
	r3, err := srv.InferMAP(ctx, InferOptions{MaxFlips: 8_000, Seed: 4})
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

	req := InferOptions{MaxFlips: 200_000, Seed: 6}
	cctx, cancel := context.WithTimeout(ctx, 5*time.Millisecond)
	defer cancel()
	if _, err := srv.InferMAP(cctx, req); err == nil {
		t.Fatal("expected cancellation or queue expiry")
	}
	res, err := srv.InferMAP(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.InferMAP(ctx, req)
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

// The flip cap bounds WalkSAT's whole run, MaxTries × MaxFlips: an explicit
// product over the cap is refused, however large the tries (no overflow); a
// defaulted per-try budget is clamped to cap / tries and answers like a
// direct call with that budget, and is refused when there are more tries
// than the cap has flips.
func TestServerCapsFlipsOverAllTries(t *testing.T) {
	ctx := context.Background()
	eng := figure1Engine(t, EngineConfig{})
	if err := eng.Ground(ctx); err != nil {
		t.Fatal(err)
	}
	const limit = 10_000
	srv, err := Serve(ServerConfig{MaxFlipsPerQuery: limit, CacheEntries: -1}, eng)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for _, c := range []struct {
		name      string
		o         InferOptions
		requested int64
	}{
		{"explicit product over the cap", InferOptions{MaxFlips: 5_000, MaxTries: 3}, 15_000},
		{"two billion tries", InferOptions{MaxFlips: 1, MaxTries: 2_000_000_000}, 2_000_000_000},
		{"product overflows int64", InferOptions{MaxFlips: 1 << 40, MaxTries: 1 << 30}, math.MaxInt64},
		{"defaulted flips, more tries than the cap", InferOptions{MaxTries: limit + 1}, int64(limit+1) * 1_000_000},
	} {
		_, err := srv.InferMAP(ctx, c.o)
		var be *server.BudgetError
		if !errors.As(err, &be) || !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("%s: err = %v, want a *server.BudgetError", c.name, err)
		}
		if be.Resource != "flips" || be.Requested != c.requested || be.Limit != limit {
			t.Fatalf("%s: budget error %+v, want flips %d of %d", c.name, be, c.requested, limit)
		}
	}
	if _, err := srv.InferMAP(ctx, InferOptions{MaxFlips: 5_000, MaxTries: 2, Seed: 3}); err != nil {
		t.Fatalf("explicit product at the cap: %v", err)
	}

	got, err := srv.InferMAP(ctx, InferOptions{MaxTries: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.InferMAP(ctx, InferOptions{MaxFlips: limit / 4, MaxTries: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if mapKey(got) != mapKey(want) {
		t.Fatal("defaulted flips under 4 tries do not answer like MaxFlips = cap / 4")
	}
	if n := srv.Metrics().RejectedBudget; n != 4 {
		t.Fatalf("RejectedBudget = %d, want 4", n)
	}
}

// When the served epoch's memory budget cuts clauses, an Auto MAP query runs
// Gauss-Seidel: one try per part per round, each spending MaxFlips. The cap
// bounds GaussSeidelRounds × parts × MaxFlips, so two billion rounds are
// refused at admission and a defaulted MaxFlips is clamped to
// limit / (rounds × parts). Monolithic search ignores the cut.
func TestServerCapsGaussSeidelFlips(t *testing.T) {
	ctx := context.Background()
	eng := figure1Engine(t, EngineConfig{MemoryBudgetBytes: 300})
	if err := eng.Ground(ctx); err != nil {
		t.Fatal(err)
	}
	const limit = 12_000
	// The deadline only keeps an uncapped run from hanging the test.
	srv, err := Serve(ServerConfig{MaxFlipsPerQuery: limit, CacheEntries: -1, MaxQueryTime: 10 * time.Second}, eng)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	probe, err := eng.InferMAP(ctx, InferOptions{MaxFlips: 1})
	if err != nil {
		t.Fatal(err)
	}
	if probe.CutClauses == 0 || probe.Partitions < 2 {
		t.Fatalf("the budget leaves %d parts, %d cut clauses; the test needs Gauss-Seidel", probe.Partitions, probe.CutClauses)
	}
	parts := int64(probe.Partitions)

	for _, c := range []struct {
		name      string
		o         InferOptions
		requested int64
	}{
		{"two billion rounds", InferOptions{GaussSeidelRounds: 2_000_000_000}, 1_000_000 * 2_000_000_000 * parts},
		{"explicit product over the cap", InferOptions{MaxFlips: 2_000, GaussSeidelRounds: 2}, 2_000 * 2 * parts},
		{"product overflows int64", InferOptions{MaxFlips: 1 << 40, GaussSeidelRounds: math.MaxInt32}, math.MaxInt64},
	} {
		start := time.Now()
		_, err := srv.InferMAP(ctx, c.o)
		var be *server.BudgetError
		if !errors.As(err, &be) || be.Resource != "flips" || be.Requested != c.requested || be.Limit != limit {
			t.Fatalf("%s: err = %v, want a flips budget error for %d of %d", c.name, err, c.requested, limit)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("%s: refused after %v, not at admission", c.name, d)
		}
	}
	if _, err := srv.InferMAP(ctx, InferOptions{MaxFlips: limit / (2 * parts), GaussSeidelRounds: 2, Seed: 3}); err != nil {
		t.Fatalf("explicit product at the cap: %v", err)
	}
	if _, err := srv.InferMAP(ctx, InferOptions{Mode: InMemoryMonolithic, MaxFlips: limit, Seed: 3}); err != nil {
		t.Fatalf("monolithic search at the cap: %v", err)
	}

	got, err := srv.InferMAP(ctx, InferOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.InferMAP(ctx, InferOptions{MaxFlips: limit / (3 * parts), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if mapKey(got) != mapKey(want) || got.CutClauses == 0 || got.Flips > limit {
		t.Fatalf("defaulted flips over 3 rounds of %d parts: %d flips, %d cut; want the answer of MaxFlips = cap / %d",
			parts, got.Flips, got.CutClauses, 3*parts)
	}
}
