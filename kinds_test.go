package tuffy

// One table-driven test of the serving path over both kinds of inference.
// The path is written once (serve.go's infer), so every behaviour is
// checked once per kind from the same staging: admission, cache, and
// queued queries, including under an evidence update.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"tuffy/internal/mln"
	"tuffy/internal/search"
	"tuffy/internal/server"
)

// answer is a served or direct result reduced to what bit-identity means
// for its kind, plus the epoch it was computed on.
type answer struct {
	bits  string
	epoch uint64
}

func mapAnswer(r *MAPResult, err error) (answer, error) {
	if r == nil {
		return answer{}, err
	}
	return answer{fmt.Sprintf("%016x|%d|%s", math.Float64bits(r.Cost), r.Flips, bitString(r.State)), r.Epoch}, err
}

func marginalAnswer(r *MarginalResult, err error) (answer, error) {
	if r == nil {
		return answer{}, err
	}
	var b strings.Builder
	for _, p := range r.Probs {
		fmt.Fprintf(&b, "%v=%016x|", p.Atom, math.Float64bits(p.P))
	}
	return answer{b.String(), r.Epoch}, err
}

// kindRow is one kind of inference as a client sees it.
type kindRow struct {
	name   string
	serve  func(context.Context, *Server, InferOptions) (answer, error)
	direct func(context.Context, *Engine, InferOptions) (answer, error)

	query InferOptions // a cheap query with an explicit budget
	// Admission against caps of 10 000 flips and 50 samples: over asks for
	// more of this kind's own budget than its cap; stray asks for more than
	// the OTHER kind's cap, which this kind never consumes; unset leaves
	// the budget to default (above the cap) and clamped is the explicit
	// query it must then equal.
	over, stray, unset, clamped InferOptions
	resource                    string
	requested, limit            int64
}

var kindRows = []kindRow{{
	name: "map",
	serve: func(ctx context.Context, s *Server, o InferOptions) (answer, error) {
		return mapAnswer(s.InferMAP(ctx, o))
	},
	direct: func(ctx context.Context, e *Engine, o InferOptions) (answer, error) {
		return mapAnswer(e.InferMAP(ctx, o))
	},
	query:    InferOptions{MaxFlips: 400, Seed: 6},
	over:     InferOptions{MaxFlips: 50_000, Seed: 1},
	stray:    InferOptions{MaxFlips: 400, Samples: 500, Seed: 1},
	unset:    InferOptions{Seed: 2},
	clamped:  InferOptions{Seed: 2, MaxFlips: 10_000},
	resource: "flips", requested: 50_000, limit: 10_000,
}, {
	name: "marginal",
	serve: func(ctx context.Context, s *Server, o InferOptions) (answer, error) {
		return marginalAnswer(s.InferMarginal(ctx, o))
	},
	direct: func(ctx context.Context, e *Engine, o InferOptions) (answer, error) {
		return marginalAnswer(e.InferMarginal(ctx, o))
	},
	query:    InferOptions{Samples: 30, Seed: 6},
	over:     InferOptions{Samples: 500, Seed: 1},
	stray:    InferOptions{Samples: 20, MaxFlips: 50_000, Seed: 1},
	unset:    InferOptions{Seed: 2},
	clamped:  InferOptions{Seed: 2, Samples: 50},
	resource: "samples", requested: 500, limit: 50,
}}

// updatableContradiction is contradictionEngine plus one closed evidence
// predicate: searches still never reach cost zero (a blocker runs until it
// is canceled), and asserting e(B) grounds a new clause, so an update
// publishes a new epoch.
func updatableContradiction(t *testing.T, evidence string) *Engine {
	t.Helper()
	prog, err := LoadProgramString(`
thing = {A, B, C, D, E, F, G, H}
p(thing)
*e(thing)
1 p(x)
1 !p(x)
2 e(x) => p(x)
`)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := LoadEvidenceString(prog, evidence)
	if err != nil {
		t.Fatal(err)
	}
	// Memo off: the components are isomorphic, and memo sharing would end
	// the blocker's search early.
	return groundedEngine(t, prog, ev, EngineConfig{MemoEntries: -1})
}

func waitMetric(t *testing.T, srv *Server, what string, get func(ServerMetrics) int64, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for get(srv.Metrics()) != want {
		if time.Now().After(deadline) {
			t.Fatalf("%s never reached %d (at %d)", what, want, get(srv.Metrics()))
		}
		time.Sleep(time.Millisecond)
	}
}

// stageFollowers occupies a one-slot server with a blocker, queues
// `followers` identical queries behind it, runs whileQueued, releases the
// blocker and returns every follower's answer with the final metrics.
func stageFollowers(t *testing.T, row kindRow, eng *Engine, cfg ServerConfig, followers int, optsOf func(int) InferOptions, whileQueued func(*Server)) ([]answer, ServerMetrics) {
	t.Helper()
	ctx := context.Background()
	cfg.MaxInFlight, cfg.MaxQueue, cfg.CacheEntries = 1, 64, -1 // cache off: every follower runs
	srv, err := Serve(cfg, eng)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	blockCtx, release := context.WithCancel(ctx)
	defer release()
	blocked := make(chan error, 1)
	go func() {
		_, err := srv.InferMAP(blockCtx, InferOptions{MaxFlips: 1 << 40, Seed: 1})
		blocked <- err
	}()
	waitMetric(t, srv, "in-flight", func(m ServerMetrics) int64 { return m.InFlight }, 1)

	got := make([]answer, followers)
	errs := make([]error, followers)
	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = row.serve(ctx, srv, optsOf(i))
		}(i)
	}
	waitMetric(t, srv, "queued", func(m ServerMetrics) int64 { return m.Queued }, int64(followers))
	if whileQueued != nil {
		whileQueued(srv)
	}
	release()
	if err := <-blocked; !errors.Is(err, ErrCanceled) {
		t.Fatalf("blocker: %v, want ErrCanceled", err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("follower %d: %v", i, err)
		}
	}
	return got, srv.Metrics()
}

func TestServingPathBothKinds(t *testing.T) {
	for _, row := range kindRows {
		t.Run(row.name, func(t *testing.T) {
			t.Run("admission", func(t *testing.T) { testAdmission(t, row) })
			t.Run("cache", func(t *testing.T) { testCache(t, row) })
			t.Run("queued", func(t *testing.T) { testQueued(t, row) })
		})
	}
}

// Explicit budgets beyond this kind's cap reject with a typed BudgetError;
// the other kind's cap never applies; defaulted budgets are clamped to the
// cap and answer like a direct call with the clamped budget; a memory cap
// below the network's estimate rejects before any search work.
func testAdmission(t *testing.T, row kindRow) {
	ctx := context.Background()
	eng := figure1Engine(t, EngineConfig{})
	if err := eng.Ground(ctx); err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(ServerConfig{MaxFlipsPerQuery: 10_000, MaxSamplesPerQuery: 50, CacheEntries: -1}, eng)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	_, err = row.serve(ctx, srv, row.over)
	var be *server.BudgetError
	if !errors.As(err, &be) || !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("over-ask: err = %v, want *server.BudgetError matching ErrBudgetExceeded", err)
	}
	if be.Resource != row.resource || be.Requested != row.requested || be.Limit != row.limit {
		t.Fatalf("budget error fields: %+v", be)
	}
	if _, err := row.serve(ctx, srv, row.stray); err != nil {
		t.Fatalf("over-ask of the other kind's budget: %v, want success", err)
	}
	got, err := row.serve(ctx, srv, row.unset)
	if err != nil {
		t.Fatal(err)
	}
	want, err := row.direct(ctx, eng, row.clamped)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatal("clamped default budget diverges from a direct call with the clamped budget")
	}
	if n := srv.Metrics().RejectedBudget; n != 1 {
		t.Fatalf("RejectedBudget = %d, want 1", n)
	}

	tiny, err := Serve(ServerConfig{MaxBytesPerQuery: 1}, eng)
	if err != nil {
		t.Fatal(err)
	}
	defer tiny.Close()
	if _, err := row.serve(ctx, tiny, row.query); !errors.As(err, &be) || be.Resource != "memory" {
		t.Fatalf("memory cap: err = %v, want memory BudgetError", err)
	}
}

// A hit is the cold run bit for bit; a query with a Tracker skips the
// lookup (it needs a real run to observe) but fills the cache.
func testCache(t *testing.T, row kindRow) {
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
	want, err := row.direct(ctx, eng, row.query)
	if err != nil {
		t.Fatal(err)
	}
	for i, wantHits := range []int64{0, 1} {
		got, err := row.serve(ctx, srv, row.query)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("query %d diverges from the direct engine call", i)
		}
		if m := srv.Metrics(); m.CacheHits != wantHits || m.CacheMisses != 1 {
			t.Fatalf("query %d: %d hits / %d misses, want %d / 1", i, m.CacheHits, m.CacheMisses, wantHits)
		}
	}

	tracked := row.query
	tracked.Tracker = search.NewTracker()
	if got, err := row.serve(ctx, srv, tracked); err != nil || got != want {
		t.Fatalf("tracked query: diverges (err %v)", err)
	}
	if m := srv.Metrics(); m.CacheHits != 1 || m.CacheMisses != 2 || m.Completed != 2 {
		t.Fatalf("tracked query over a cached key: %d hits / %d misses / %d runs, want a real run counted as a miss", m.CacheHits, m.CacheMisses, m.Completed)
	}
	fresh := row.query
	fresh.Seed++
	fresh.Tracker = search.NewTracker()
	first, err := row.serve(ctx, srv, fresh)
	if err != nil {
		t.Fatal(err)
	}
	fresh.Tracker = nil
	again, err := row.serve(ctx, srv, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if m := srv.Metrics(); m.CacheHits != 2 || again != first {
		t.Fatalf("tracked run did not fill the cache: %d hits", m.CacheHits)
	}
}

// Queued queries each run once, in their own slot turn, and answer like a
// direct call on the epoch they ran on: identical queries, queries with
// Trackers, and queries admitted before an evidence update lands (they
// run on the new epoch).
func testQueued(t *testing.T, row kindRow) {
	ctx := context.Background()
	const followers = 4
	same := func(int) InferOptions { return row.query }
	direct := func(evidence string) answer {
		want, err := row.direct(ctx, updatableContradiction(t, evidence), row.query)
		if err != nil {
			t.Fatal(err)
		}
		return want
	}
	check := func(t *testing.T, got []answer, m ServerMetrics, want answer, epoch uint64) {
		t.Helper()
		want.epoch = epoch
		for i, a := range got {
			if a != want {
				t.Fatalf("follower %d diverges from the direct engine call (epoch %d, want %d)", i, a.epoch, epoch)
			}
		}
		// The blocker's canceled run completes too.
		if m.Completed != followers+1 || m.Batched != 0 {
			t.Fatalf("completed/batched = %d/%d, want %d/0", m.Completed, m.Batched, followers+1)
		}
	}

	t.Run("identical", func(t *testing.T) {
		got, m := stageFollowers(t, row, updatableContradiction(t, "e(A)"), ServerConfig{}, followers, same, nil)
		check(t, got, m, direct("e(A)"), 0)
	})
	t.Run("tracked", func(t *testing.T) {
		tracked := func(int) InferOptions {
			o := row.query
			o.Tracker = search.NewTracker()
			return o
		}
		got, m := stageFollowers(t, row, updatableContradiction(t, "e(A)"), ServerConfig{}, followers, tracked, nil)
		check(t, got, m, direct("e(A)"), 0)
	})
	t.Run("update-while-queued", func(t *testing.T) {
		eng := updatableContradiction(t, "e(A)")
		got, m := stageFollowers(t, row, eng, ServerConfig{}, followers, same, func(srv *Server) {
			b, _ := eng.prog.Syms.Lookup("B")
			var d mln.Delta
			d.Upsert(eng.prog.MustPredicate("e"), []int32{b}, mln.True)
			if ur, err := srv.UpdateEvidence(ctx, d); err != nil || ur.Identical {
				t.Fatalf("update: %+v, %v; want a new epoch", ur, err)
			}
		})
		// Admitted on epoch 0, run on epoch 1: answers of a network grounded
		// from scratch on the merged evidence.
		check(t, got, m, direct("e(A)\ne(B)"), 1)
	})
}
