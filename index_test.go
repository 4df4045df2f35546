package tuffy

// Tests of the per-network search index's lifetime at the Engine level: it
// is built once under concurrent first use, it follows untouched local
// networks across evidence updates, and it dies with the networks an update
// superseded.

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tuffy/internal/datagen"
	"tuffy/internal/mln"
	"tuffy/internal/mrf"
)

// Queries that arrive together on a freshly grounded Engine race to build
// each component's index; every answer must equal the same query run alone
// on a second engine. Runs under -race in CI.
func TestConcurrentColdQueriesShareOneIndex(t *testing.T) {
	ctx := context.Background()
	ds := rcSmall()
	cold := groundedEngine(t, ds.Prog, ds.Ev.Clone(), EngineConfig{})
	ref := groundedEngine(t, ds.Prog, ds.Ev.Clone(), EngineConfig{})

	const maps, margs = 8, 2
	mapQ := func(i int) InferOptions {
		return InferOptions{MaxFlips: 20_000, Seed: int64(40 + i), Parallelism: 1 + i%3}
	}
	margQ := func(i int) InferOptions { return InferOptions{Samples: 20, Seed: int64(70 + i), Parallelism: 2} }
	gotMAP := make([]*MAPResult, maps)
	gotMarg := make([]*MarginalResult, margs)
	errs := make([]error, maps+margs)
	var wg sync.WaitGroup
	for i := 0; i < maps; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			gotMAP[i], errs[i] = cold.InferMAP(ctx, mapQ(i))
		}(i)
	}
	for i := 0; i < margs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			gotMarg[i], errs[maps+i] = cold.InferMarginal(ctx, margQ(i))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent query %d: %v", i, err)
		}
	}
	for i := 0; i < maps; i++ {
		want, err := ref.InferMAP(ctx, mapQ(i))
		if err != nil {
			t.Fatal(err)
		}
		requireSameMAP(t, "cold concurrent MAP", gotMAP[i], want)
	}
	for i := 0; i < margs; i++ {
		want, err := ref.InferMarginal(ctx, margQ(i))
		if err != nil {
			t.Fatal(err)
		}
		requireSameMarginal(t, "cold concurrent marginal", gotMarg[i], want)
	}
}

// localMRFs returns the local networks of the current epoch's
// decomposition (none before a query has built it).
func localMRFs(e *Engine) map[*mrf.MRF]struct{} {
	out := map[*mrf.MRF]struct{}{}
	if part := e.cur.Load().decomposed(); part != nil {
		for _, p := range part.Parts {
			out[p.Local] = struct{}{}
		}
	}
	return out
}

// An evidence update carries every untouched part into the next epoch by
// pointer, so its index (a field of the local MRF) is the same object and
// is not rebuilt; a touched part is a new MRF with its own, fresh index.
func TestSearchIndexFollowsUntouchedPartsAcrossUpdate(t *testing.T) {
	ctx := context.Background()
	ds := rcSmall()
	eng := groundedEngine(t, ds.Prog, ds.Ev.Clone(), EngineConfig{})
	q := InferOptions{MaxFlips: 20_000, Seed: 7}
	if _, err := eng.InferMAP(ctx, q); err != nil {
		t.Fatal(err)
	}
	before := map[*mrf.MRF]*mrf.Postings{}
	for m := range localMRFs(eng) {
		before[m] = m.SharedPostings()
	}
	delta := datagen.RandomDelta(ds, "refers", 4, 99)
	ur, err := eng.UpdateEvidence(ctx, delta)
	if err != nil {
		t.Fatal(err)
	}
	if ur.Identical {
		t.Skip("delta happened to be a logical no-op")
	}
	kept, fresh := 0, 0
	indexes := map[*mrf.Postings]bool{}
	for _, p := range before {
		indexes[p] = true
	}
	for m := range localMRFs(eng) {
		if old, ok := before[m]; ok {
			if m.SharedPostings() != old {
				t.Fatal("an untouched part's index was replaced")
			}
			kept++
		} else {
			if indexes[m.SharedPostings()] {
				t.Fatal("a rebuilt part reuses a superseded part's index")
			}
			fresh++
		}
	}
	if kept != ur.PartsReused || kept == 0 || fresh == 0 {
		t.Fatalf("kept %d indexes (update reused %d parts), %d fresh", kept, ur.PartsReused, fresh)
	}
	got, err := eng.InferMAP(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := groundedEngine(t, ds.Prog, mergedEvidence(t, ds.Ev, delta), EngineConfig{}).InferMAP(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	requireSameMAP(t, "after update", got, want)
}

// A long-lived engine under a delta/inverse stream must not pin the local
// networks its updates superseded: once no query uses the old epoch, every
// replaced local MRF (and the index inside it) is garbage. The memo used to
// key fingerprints by MRF pointer in a map nobody pruned, which kept all of
// them alive for the life of the Engine.
func TestSupersededLocalMRFsAreCollected(t *testing.T) {
	ctx := context.Background()
	ds := rcSmall()
	eng := groundedEngine(t, ds.Prog, ds.Ev.Clone(), EngineConfig{})
	var superseded, finalized atomic.Int64

	query := func(seed int64) {
		if _, err := eng.InferMAP(ctx, InferOptions{MaxFlips: 20_000, Seed: seed}); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.InferMarginal(ctx, InferOptions{Samples: 5, Seed: seed}); err != nil {
			t.Fatal(err)
		}
	}
	// update applies d and arms a finalizer on every local MRF it replaced.
	// The sets of MRF pointers live only in this frame.
	update := func(d mln.Delta) mln.Delta {
		old := localMRFs(eng)
		ur, err := eng.UpdateEvidence(ctx, d)
		if err != nil {
			t.Fatal(err)
		}
		cur := localMRFs(eng)
		for m := range old {
			if _, kept := cur[m]; !kept {
				superseded.Add(1)
				runtime.SetFinalizer(m, func(*mrf.MRF) { finalized.Add(1) })
			}
		}
		return ur.Inverse
	}

	delta := datagen.RandomDelta(ds, "refers", 4, 99)
	query(1)
	for cycle := int64(0); cycle < 5; cycle++ {
		inverse := update(delta)
		query(2 + 2*cycle)
		update(inverse)
		query(3 + 2*cycle)
	}
	if superseded.Load() == 0 {
		t.Fatal("the delta stream superseded no local network")
	}
	deadline := time.Now().Add(5 * time.Second)
	for finalized.Load() < superseded.Load() && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if f, s := finalized.Load(), superseded.Load(); f != s {
		t.Fatalf("%d of %d superseded local MRFs are still reachable", s-f, s)
	}
	runtime.KeepAlive(eng)
}
