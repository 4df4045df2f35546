package search

import (
	"bytes"
	"context"
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"tuffy/internal/datagen"
	"tuffy/internal/mrf"
)

// hugeParallelism is what a client can put in a query's "parallelism"
// field; one query must not turn it into that many goroutines.
const hugeParallelism = 1 << 20

// peakGoroutines runs fn while sampling the goroutine dump and returns the
// peak number of goroutines running a worker closure of ComponentAware or
// MCSATComponents — the goroutines the query itself starts. Counting every
// goroutine of the process instead also counts whatever earlier tests left
// winding down, which a loaded host keeps alive long enough to matter.
func peakGoroutines(fn func()) int {
	var peak atomic.Int64
	done := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		buf := make([]byte, 1<<16)
		for {
			var n int
			for n = runtime.Stack(buf, true); n == len(buf); n = runtime.Stack(buf, true) {
				buf = make([]byte, 2*len(buf))
			}
			workers := 0
			for _, g := range bytes.Split(buf[:n], []byte("\n\n")) {
				if bytes.Contains(g, []byte("search.ComponentAware.func")) || bytes.Contains(g, []byte("search.MCSATComponents.func")) {
					workers++
				}
			}
			if int64(workers) > peak.Load() {
				peak.Store(int64(workers))
			}
			select {
			case <-done:
				return
			default:
				runtime.Gosched()
			}
		}
	}()
	fn()
	close(done)
	<-sampled
	return int(peak.Load())
}

// capCheck fails unless a run with hugeParallelism stayed within the
// component count (plus the dispatching goroutine's slack).
func capCheck(t *testing.T, peak int, comps []*mrf.Component) {
	t.Helper()
	if limit := len(comps) + 2; peak > limit {
		t.Fatalf("Parallelism %d started %d goroutines over %d components, want at most %d",
			hugeParallelism, peak, len(comps), limit)
	}
}

func TestComponentAwareCapsWorkersAtComponents(t *testing.T) {
	ctx := context.Background()
	m := datagen.Example1(12)
	comps := m.Components(false)
	run := func(par int) *ComponentResult {
		res, err := ComponentAware(ctx, m, comps, ComponentOptions{Base: Options{MaxFlips: 2400, Seed: 19}, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(1)
	var got *ComponentResult
	capCheck(t, peakGoroutines(func() { got = run(hugeParallelism) }), comps)
	if math.Float64bits(got.BestCost) != math.Float64bits(want.BestCost) || got.Flips != want.Flips {
		t.Fatalf("cost %v / %d flips, want %v / %d", got.BestCost, got.Flips, want.BestCost, want.Flips)
	}
	for i := range want.Best {
		if got.Best[i] != want.Best[i] {
			t.Fatalf("atom %d differs from the Parallelism 1 run", i)
		}
	}
}

func TestMCSATComponentsCapsWorkersAtComponents(t *testing.T) {
	ctx := context.Background()
	m := datagen.Example1(12)
	comps := m.Components(false)
	opts := MCSATOptions{Samples: 20, Seed: 11}
	want, err := MCSATComponents(ctx, m, comps, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	var got []float64
	capCheck(t, peakGoroutines(func() {
		if got, err = MCSATComponents(ctx, m, comps, opts, hugeParallelism); err != nil {
			t.Error(err)
		}
	}), comps)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("atom %d: marginal %v, want %v", i, got[i], want[i])
		}
	}
}
