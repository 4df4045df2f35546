package tuffy

// Tests of the distributed inference tier end to end: a coordinator
// Server over real TCP workers must reject workers grounded from a
// different program or evidence, fan evidence updates out so restarted
// workers catch up from the journal, and keep its persisted cache across
// a restart. Bit-identity at every worker count, and a worker killed
// while queries flow, are checked per kind in kinds_test.go. The CI race
// job runs this package with -race.

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"tuffy/internal/datagen"
	"tuffy/internal/mln"
	"tuffy/internal/remote"
)

// startEngineWorker grounds a fresh engine on the dataset and serves it
// over TCP on an ephemeral port — one `tuffyd -worker` process, in-proc.
func startEngineWorker(t *testing.T, prog *mln.Program, ev *mln.Evidence) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return serveEngineWorker(t, prog, ev, ln)
}

func serveEngineWorker(t *testing.T, prog *mln.Program, ev *mln.Evidence, ln net.Listener) (string, func()) {
	t.Helper()
	eng := groundedEngine(t, prog, ev, EngineConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- remote.NewWorker(eng).Serve(ctx, ln) }()
	var once sync.Once
	return ln.Addr().String(), func() {
		once.Do(func() {
			cancel()
			if err := <-done; err != nil {
				t.Errorf("worker serve: %v", err)
			}
		})
	}
}

// distServer builds a coordinator over the given worker addresses with a
// fast probe cadence and no result cache (so every query exercises the
// sharder, not the cache).
func distServer(t *testing.T, eng *Engine, workers ...string) *Server {
	t.Helper()
	srv, err := Serve(ServerConfig{
		CacheEntries:     -1,
		Workers:          workers,
		WorkerProbeEvery: 50 * time.Millisecond,
	}, eng)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func waitForWorkers(t *testing.T, srv *Server, healthy int, epoch uint64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		n := 0
		for _, w := range srv.Workers() {
			if w.Healthy && w.Epoch == epoch {
				n++
			}
		}
		if n >= healthy {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("workers never reached healthy=%d at epoch %d: %+v", healthy, epoch, srv.Workers())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// A worker grounded from different evidence must be rejected by the
// handshake and never enter membership; queries still answer locally,
// bit-identical.
func TestShardRejectsWorkerWithForeignEvidence(t *testing.T) {
	ctx := context.Background()
	ds := rcSmall()
	delta := filterValid(ds.Ev, datagen.RandomDelta(ds, "refers", 4, 17))
	if delta.Len() == 0 {
		t.Fatal("empty test delta")
	}
	foreignEv := mergedEvidence(t, ds.Ev, delta)

	addr, stop := startEngineWorker(t, ds.Prog, foreignEv)
	defer stop()
	eng := groundedEngine(t, ds.Prog, ds.Ev.Clone(), EngineConfig{})
	srv := distServer(t, eng, addr)

	// Give the probe loop a few rounds: the worker must stay out.
	time.Sleep(200 * time.Millisecond)
	ws := srv.Workers()
	if len(ws) != 1 || ws[0].Healthy {
		t.Fatalf("foreign worker admitted: %+v", ws)
	}
	if ws[0].LastErr == "" {
		t.Fatalf("foreign worker has no recorded error: %+v", ws)
	}

	q := InferOptions{MaxFlips: 20_000, Seed: 7}
	want, err := groundedEngine(t, ds.Prog, ds.Ev.Clone(), EngineConfig{}).InferMAP(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := srv.InferMAP(ctx, Request{Options: q})
	if err != nil {
		t.Fatal(err)
	}
	requireSameMAP(t, "local fallback", got, want)
}

// Evidence updates fan out to live workers, and a worker that was down
// through a sequence of updates catches up from the coordinator's delta
// journal when it comes back — starting from the base evidence, exactly
// like a restarted `tuffyd -worker`.
func TestShardUpdateFanOutAndRestartCatchUp(t *testing.T) {
	ctx := context.Background()
	ds := rcSmall()
	mapQ := InferOptions{MaxFlips: 20_000, Seed: 7}
	margQ := InferOptions{Samples: 40, Seed: 9}

	a1, stop1 := startEngineWorker(t, ds.Prog, ds.Ev.Clone())
	defer stop1()
	// Second worker is down from the start: address reserved, no listener.
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a2 := ln2.Addr().String()
	ln2.Close()

	eng := groundedEngine(t, ds.Prog, ds.Ev.Clone(), EngineConfig{})
	srv := distServer(t, eng, a1, a2)
	waitForWorkers(t, srv, 1, 0)

	// Two updates; the live worker follows along via fan-out.
	merged := ds.Ev.Clone()
	epoch := uint64(0)
	for round := 0; round < 2; round++ {
		delta := filterValid(merged, datagen.RandomDelta(ds, "refers", 5, int64(31+round)))
		if delta.Len() == 0 {
			t.Fatalf("round %d: empty delta", round)
		}
		ur, err := srv.UpdateEvidence(ctx, delta)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := merged.Apply(delta); err != nil {
			t.Fatal(err)
		}
		if !ur.Identical {
			epoch++
		}
	}
	if epoch == 0 {
		t.Fatal("updates were all no-ops; test needs effective deltas")
	}
	waitForWorkers(t, srv, 1, epoch)

	// Reference: a fresh engine grounded from scratch on the merged
	// evidence. Sharded answers on the new epoch must match it bit for bit.
	ref := groundedEngine(t, ds.Prog, merged.Clone(), EngineConfig{})
	wantMAP, err := ref.InferMAP(ctx, mapQ)
	if err != nil {
		t.Fatal(err)
	}
	wantMarg, err := ref.InferMarginal(ctx, margQ)
	if err != nil {
		t.Fatal(err)
	}
	gotMAP, err := srv.InferMAP(ctx, Request{Options: mapQ})
	if err != nil {
		t.Fatal(err)
	}
	requireSameMAP(t, "post-update MAP", gotMAP, wantMAP)
	gotMarg, err := srv.InferMarginal(ctx, Request{Options: margQ})
	if err != nil {
		t.Fatal(err)
	}
	requireSameMarginal(t, "post-update marginal", gotMarg, wantMarg)

	// The down worker comes up fresh from the BASE evidence on its reserved
	// address; the probe loop replays the journal and it rejoins current.
	ln2b, err := net.Listen("tcp", a2)
	if err != nil {
		t.Fatal(err)
	}
	_, stop2 := serveEngineWorker(t, ds.Prog, ds.Ev.Clone(), ln2b)
	defer stop2()
	waitForWorkers(t, srv, 2, epoch)

	gotMAP, err = srv.InferMAP(ctx, Request{Options: mapQ})
	if err != nil {
		t.Fatal(err)
	}
	requireSameMAP(t, "MAP after catch-up", gotMAP, wantMAP)
}

// The persisted result cache is coordinator-owned and survives a restart
// with workers attached: a warm-started distributed server answers its
// working set from cache, bit-identical to the run that filled it.
func TestShardPersistedCacheSharedAcrossRestart(t *testing.T) {
	ctx := context.Background()
	ds := rcSmall()
	dir := t.TempDir()
	q := InferOptions{MaxFlips: 20_000, Seed: 7}

	addr, stop := startEngineWorker(t, ds.Prog, ds.Ev.Clone())
	defer stop()

	open := func() *Server {
		eng := groundedEngine(t, ds.Prog, ds.Ev.Clone(), EngineConfig{})
		srv, err := Serve(ServerConfig{
			DataDir:          dir,
			Workers:          []string{addr},
			WorkerProbeEvery: 50 * time.Millisecond,
		}, eng)
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}

	srv := open()
	waitForWorkers(t, srv, 1, 0)
	want, err := srv.InferMAP(ctx, Request{Options: q})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	srv2 := open()
	defer srv2.Close()
	got, err := srv2.InferMAP(ctx, Request{Options: q})
	if err != nil {
		t.Fatal(err)
	}
	requireSameMAP(t, "reloaded cache entry", got, want)
	if hits := srv2.Metrics().CacheHits; hits != 1 {
		t.Fatalf("warm-started server had %d cache hits, want 1", hits)
	}
}
