package tuffy

// Tests of the epoch-based live-evidence path: UpdateEvidence must publish
// networks bit-identical to a fresh Ground over the merged evidence, keep
// in-flight and subsequent queries consistent, and leave the previous
// epoch serving (with nothing leaked) when an update fails mid-way.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"tuffy/internal/datagen"
	"tuffy/internal/db"
	"tuffy/internal/db/storage"
	"tuffy/internal/mln"
)

func rcSmall() *datagen.Dataset {
	return datagen.RC(datagen.RCConfig{Papers: 60, Authors: 30, Categories: 4, Clusters: 12, Seed: 11})
}

func ieSmall() *datagen.Dataset {
	return datagen.IE(datagen.IEConfig{Chains: 30, Seed: 13})
}

// mergedEvidence clones base and applies delta — the "from scratch" side
// of every bit-identity check.
func mergedEvidence(t *testing.T, base *mln.Evidence, delta mln.Delta) *mln.Evidence {
	t.Helper()
	ev := base.Clone()
	if _, err := ev.Apply(delta); err != nil {
		t.Fatal(err)
	}
	return ev
}

func groundedEngine(t *testing.T, prog *mln.Program, ev *mln.Evidence, cfg EngineConfig) *Engine {
	t.Helper()
	eng := mustOpen(t, prog, ev, cfg)
	if err := eng.Ground(context.Background()); err != nil {
		t.Fatal(err)
	}
	return eng
}

func requireSameMAP(t *testing.T, tag string, got, want *MAPResult) {
	t.Helper()
	if got.Cost != want.Cost {
		t.Fatalf("%s: cost %v != %v", tag, got.Cost, want.Cost)
	}
	if got.Flips != want.Flips {
		t.Fatalf("%s: flips %d != %d", tag, got.Flips, want.Flips)
	}
	if !sameStates(got.State, want.State) {
		t.Fatalf("%s: best states differ", tag)
	}
}

func requireSameMarginal(t *testing.T, tag string, got, want *MarginalResult) {
	t.Helper()
	if len(got.Probs) != len(want.Probs) {
		t.Fatalf("%s: prob lengths %d != %d", tag, len(got.Probs), len(want.Probs))
	}
	for i := range want.Probs {
		if fmt.Sprint(got.Probs[i].Atom) != fmt.Sprint(want.Probs[i].Atom) || got.Probs[i].P != want.Probs[i].P {
			t.Fatalf("%s: prob %d differs: %v=%v vs %v=%v", tag, i,
				got.Probs[i].Atom, got.Probs[i].P, want.Probs[i].Atom, want.Probs[i].P)
		}
	}
}

// chainDataset is the program on which the active closure admits and drops
// clauses whose own raws an update never changes: seeding the head of the
// friend chain A→B→C→D activates one rule grounding after another.
func chainDataset(t *testing.T, seeds ...string) *datagen.Dataset {
	t.Helper()
	prog, err := mln.ParseProgramString(`
*seed(person)
*friend(person, person)
smokes(person)
1 seed(x) => smokes(x)
1.5 smokes(x), friend(x, y) => smokes(y)
`)
	if err != nil {
		t.Fatal(err)
	}
	evSrc := "friend(A, B)\nfriend(B, C)\nfriend(C, D)\n"
	for _, s := range seeds {
		evSrc += "seed(" + s + ")\n"
	}
	ev, err := mln.ParseEvidenceString(prog, evSrc)
	if err != nil {
		t.Fatal(err)
	}
	return &datagen.Dataset{Name: "chain", Prog: prog, Ev: ev}
}

// seedDelta asserts (or, with on false, retracts) seed(person) on a chain
// dataset.
func seedDelta(ds *datagen.Dataset, person string, on bool) mln.Delta {
	var d mln.Delta
	args := []int32{ds.Prog.Constant("person", person)}
	if on {
		d.Upsert(ds.Prog.MustPredicate("seed"), args, mln.True)
	} else {
		d.Remove(ds.Prog.MustPredicate("seed"), args)
	}
	return d
}

// Randomized insert+retract deltas over the IE and RC datasets, and the
// closure's activation and deactivation chains: after UpdateEvidence, MAP and
// marginal answers must be bit-identical to a fresh engine grounded from
// scratch on the merged evidence — across a chain of updates, and again after
// applying an update's Inverse — with and without the active closure and a
// memory budget.
func TestUpdateEvidenceMatchesFreshGround(t *testing.T) {
	type testCase struct {
		name  string
		ds    *datagen.Dataset
		cfg   EngineConfig
		delta func(round int) mln.Delta // an empty delta skips the round
	}
	random := func(name string, ds *datagen.Dataset, pred string, n int, cfg EngineConfig) testCase {
		return testCase{name: name, ds: ds, cfg: cfg, delta: func(round int) mln.Delta {
			return datagen.RandomDelta(ds, pred, n, int64(100*round+99))
		}}
	}
	closure := EngineConfig{UseClosure: true}
	budgeted := EngineConfig{UseClosure: true, MemoryBudgetBytes: 200}
	cases := []testCase{
		random("RC/refers", rcSmall(), "refers", 8, EngineConfig{}),
		random("RC/cat", rcSmall(), "cat", 6, EngineConfig{}),
		random("IE/hint", ieSmall(), "hint", 10, EngineConfig{}),
		random("RC/refers/closure", rcSmall(), "refers", 8, closure),
		random("IE/hint/closure", ieSmall(), "hint", 10, closure),
		random("RC/refers/closure+budget", rcSmall(), "refers", 8, budgeted),
	}
	for _, cfg := range []EngineConfig{closure, budgeted} {
		suffix := ""
		if cfg.MemoryBudgetBytes > 0 {
			suffix = "+budget"
		}
		// Seeding A admits seed(A)'s own clause and the three rule groundings
		// down the chain; the last round's Inverse then drops them again.
		up := chainDataset(t, "D")
		cases = append(cases, testCase{name: "chain/activate" + suffix, ds: up, cfg: cfg,
			delta: func(round int) mln.Delta {
				if round > 0 {
					return mln.Delta{}
				}
				return seedDelta(up, "A", true)
			}})
		// Retracting seed(A) drops those four; seeding B re-admits three.
		down := chainDataset(t, "A", "D")
		cases = append(cases, testCase{name: "chain/deactivate" + suffix, ds: down, cfg: cfg,
			delta: func(round int) mln.Delta {
				switch round {
				case 0:
					return seedDelta(down, "A", false)
				case 1:
					return seedDelta(down, "B", true)
				}
				return mln.Delta{}
			}})
	}
	mapQ := InferOptions{MaxFlips: 20_000, Seed: 7}
	margQ := InferOptions{Samples: 60, Seed: 9}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			eng := groundedEngine(t, tc.ds.Prog, tc.ds.Ev.Clone(), tc.cfg)
			// Materialize the derived structures so the updates exercise the
			// repair paths (not just lazy recompute on the new epoch).
			if _, err := eng.InferMAP(ctx, mapQ); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.InferMarginal(ctx, margQ); err != nil {
				t.Fatal(err)
			}
			update := func(tag string, delta mln.Delta) *UpdateResult {
				t.Helper()
				ur, err := eng.UpdateEvidence(ctx, delta)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				return ur
			}

			merged := tc.ds.Ev.Clone()
			var lastInverse mln.Delta
			for round := 0; round < 3; round++ {
				// RandomDelta derives ops from the original dataset; rounds
				// after the first may retract tuples round 0 already removed.
				// Filter to ops valid against the current merged evidence.
				delta := filterValid(merged, tc.delta(round))
				if delta.Len() == 0 {
					continue
				}
				ur := update(fmt.Sprintf("round %d", round), delta)
				lastInverse = ur.Inverse
				if _, err := merged.Apply(delta); err != nil {
					t.Fatal(err)
				}
				if !ur.Identical && ur.ClausesRerun == ur.ClausesTotal {
					t.Fatalf("round %d: no clause grounding was reused (%d/%d rerun)", round, ur.ClausesRerun, ur.ClausesTotal)
				}

				fresh := groundedEngine(t, tc.ds.Prog, merged.Clone(), tc.cfg)
				gotM, err := eng.InferMAP(ctx, mapQ)
				if err != nil {
					t.Fatal(err)
				}
				wantM, err := fresh.InferMAP(ctx, mapQ)
				if err != nil {
					t.Fatal(err)
				}
				requireSameMAP(t, fmt.Sprintf("round %d MAP", round), gotM, wantM)
				gotP, err := eng.InferMarginal(ctx, margQ)
				if err != nil {
					t.Fatal(err)
				}
				wantP, err := fresh.InferMarginal(ctx, margQ)
				if err != nil {
					t.Fatal(err)
				}
				requireSameMarginal(t, fmt.Sprintf("round %d marginal", round), gotP, wantP)
			}

			// Undo the last update with its Inverse: answers must return to
			// the pre-update state bit-identically.
			if lastInverse.Len() > 0 {
				if _, err := merged.Apply(lastInverse); err != nil {
					t.Fatal(err)
				}
				update("inverse", lastInverse)
				fresh := groundedEngine(t, tc.ds.Prog, merged.Clone(), tc.cfg)
				gotM, err := eng.InferMAP(ctx, mapQ)
				if err != nil {
					t.Fatal(err)
				}
				wantM, err := fresh.InferMAP(ctx, mapQ)
				if err != nil {
					t.Fatal(err)
				}
				requireSameMAP(t, "inverse MAP", gotM, wantM)
			}
		})
	}
}

// An update re-folds the network the way Ground folds it and keeps no second
// copy of the fold beside it: the engine's live heap after a 20-op update,
// and after its inverse, stays near what Ground plus one MAP query left. RC
// at rc-serve size repairs a decomposition held in arenas, whose reused
// parts carry over (within a quarter). IE's parts are windows into the
// network or share one network per content, which the repair lays out anew
// instead of pinning the old epoch's; the few parts of new content an update
// leaves go into arenas rather than a renumbered copy of the whole network,
// so IE stays within 5 %.
func TestUpdateHoldsNoSecondFold(t *testing.T) {
	for _, tc := range []struct {
		ds    *datagen.Dataset
		pred  string
		bound float64
	}{
		{rcServe(), "refers", 1.25},
		{datagen.IE(datagen.IEConfig{Chains: 1500, Seed: 1}), "hint", 1.05},
	} {
		t.Run(tc.ds.Name, func(t *testing.T) {
			ev := tc.ds.Ev.Clone()
			delta := datagen.RandomDelta(tc.ds, tc.pred, 20, 99)
			live := func() int64 {
				runtime.GC()
				var m runtime.MemStats
				runtime.ReadMemStats(&m)
				return int64(m.HeapAlloc)
			}
			base := live()
			eng := mustOpen(t, tc.ds.Prog, ev, EngineConfig{})
			if err := eng.Ground(context.Background()); err != nil {
				t.Fatal(err)
			}
			mustMAP(t, eng, 1)
			grounded := live() - base
			ur := mustUpdate(t, eng, delta)
			if ur.Identical || ur.PartsReused == 0 {
				t.Fatalf("the update repaired no decomposition: %+v", ur)
			}
			updated := live() - base
			mustUpdate(t, eng, ur.Inverse)
			back := live() - base
			runtime.KeepAlive(eng)
			for _, h := range []struct {
				when  string
				bytes int64
			}{{"after the update", updated}, {"after its inverse", back}} {
				if ratio := float64(h.bytes) / float64(grounded); ratio > tc.bound {
					t.Errorf("engine heap %s: %.1f MB, %.2f× the %.1f MB after Ground", h.when, float64(h.bytes)/(1<<20), ratio, float64(grounded)/(1<<20))
				}
			}
			t.Logf("engine heap: %.1f MB after Ground, %.1f MB after the update, %.1f MB after its inverse",
				float64(grounded)/(1<<20), float64(updated)/(1<<20), float64(back)/(1<<20))
		})
	}
}

// filterValid drops retractions of tuples absent from ev (RandomDelta
// builds against the original dataset; chained rounds drift from it).
func filterValid(ev *mln.Evidence, d mln.Delta) mln.Delta {
	var out mln.Delta
	for _, op := range d.Ops {
		if op.Truth == mln.Unknown {
			if _, ok := ev.Get(op.Pred, op.Args); !ok {
				continue
			}
		}
		out.Ops = append(out.Ops, op)
	}
	return out
}

// A delta that re-asserts existing evidence is a logical no-op: the
// grounded network is bit-identical, so the engine keeps the current epoch
// (and everything keyed to it) instead of publishing a new one.
func TestUpdateEvidenceIdenticalKeepsEpoch(t *testing.T) {
	ctx := context.Background()
	ds := rcSmall()
	eng := groundedEngine(t, ds.Prog, ds.Ev.Clone(), EngineConfig{})
	refers, _ := ds.Prog.Predicate("refers")
	var d mln.Delta
	found := false
	ds.Ev.ForEach(refers, func(args []int32, truth mln.Truth) {
		if !found {
			d.Upsert(refers, args, truth)
			found = true
		}
	})
	if !found {
		t.Fatal("no refers evidence to re-assert")
	}
	before := eng.Generation()
	ur, err := eng.UpdateEvidence(ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	if !ur.Identical {
		t.Fatalf("re-asserting existing evidence: Identical=false (%+v)", ur)
	}
	if eng.Generation() != before {
		t.Fatalf("generation moved %d -> %d on an identical update", before, eng.Generation())
	}
	if eng.UpdatesApplied() != 1 {
		t.Fatalf("UpdatesApplied = %d, want 1", eng.UpdatesApplied())
	}
}

// The component memo must survive an evidence update: components the
// update did not touch keep their content fingerprints (on RC by sharing
// their local MRFs; IE's are windows, laid out anew in the new network), so
// re-running the same query on the new epoch serves them as bit-identical
// hits instead of re-searching. At deltas of at most 1% of
// the mutated predicate the update is also gated on work counters, which
// hold on any host where a wall-clock ratio against a full re-ground does
// not: some clause grounding is reused, and at least 90% of the parts are
// carried over and answered from the memo.
func TestMemoSurvivesUpdateForUntouchedComponents(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		ds   *datagen.Dataset
		pred string
	}{
		{datagen.IE(datagen.IEConfig{Chains: 200, Seed: 12}), "hint"},
		{datagen.RC(datagen.RCConfig{Papers: 300, Authors: 120, Categories: 5, Clusters: 60, Seed: 11}), "refers"},
	}
	q := InferOptions{MaxFlips: 20_000, Seed: 7}
	for _, tc := range cases {
		t.Run(tc.ds.Name, func(t *testing.T) {
			eng := groundedEngine(t, tc.ds.Prog, tc.ds.Ev.Clone(), EngineConfig{})
			// The MAP query materializes the partitioning, so the update
			// repairs it; untouched parts keep their content, which is what
			// their memo fingerprints hash.
			if _, err := eng.InferMAP(ctx, q); err != nil {
				t.Fatal(err)
			}
			pt, _ := eng.cur.Load().decomposition(eng.partitionBeta())
			parts := len(pt.Parts)
			rows := tc.ds.Ev.Count(tc.ds.Prog.MustPredicate(tc.pred))
			delta := datagen.RandomDelta(tc.ds, tc.pred, max(1, rows/100), 99)
			ur, err := eng.UpdateEvidence(ctx, delta)
			if err != nil {
				t.Fatal(err)
			}
			if ur.Identical {
				t.Fatal("delta is a logical no-op; pick another seed")
			}
			if ur.ClausesRerun >= ur.ClausesTotal {
				t.Fatalf("no clause grounding was reused (%d/%d rerun)", ur.ClausesRerun, ur.ClausesTotal)
			}
			if ur.PartsReused*10 < parts*9 {
				t.Fatalf("%d-op delta over %d %s rows reused %d of %d parts, want >= 90%%",
					delta.Len(), rows, tc.pred, ur.PartsReused, parts)
			}
			h0 := eng.MemoStats().Hits
			if _, err := eng.InferMAP(ctx, q); err != nil {
				t.Fatal(err)
			}
			if hits := eng.MemoStats().Hits - h0; hits < int64(ur.PartsReused) {
				t.Fatalf("post-update query hit the memo %d times, want one hit per reused part (%d)", hits, ur.PartsReused)
			}
		})
	}
}

// Errors before any mutation: updates require a grounded bottom-up engine
// and a rejected delta (constant outside its domain) changes nothing.
func TestUpdateEvidenceRejections(t *testing.T) {
	ctx := context.Background()
	ds := rcSmall()

	cold := mustOpen(t, ds.Prog, ds.Ev.Clone(), EngineConfig{})
	if _, err := cold.UpdateEvidence(ctx, mln.Delta{}); err == nil {
		t.Fatal("UpdateEvidence before Ground must fail")
	}

	td := groundedEngine(t, ds.Prog, ds.Ev.Clone(), EngineConfig{Grounder: TopDown})
	if _, err := td.UpdateEvidence(ctx, mln.Delta{}); err == nil {
		t.Fatal("UpdateEvidence on a top-down engine must fail")
	}

	eng := groundedEngine(t, ds.Prog, ds.Ev.Clone(), EngineConfig{})
	refers, _ := ds.Prog.Predicate("refers")
	var bad mln.Delta
	bad.Upsert(refers, []int32{9999, 9999}, mln.True)
	gen := eng.Generation()
	if _, err := eng.UpdateEvidence(ctx, bad); err == nil {
		t.Fatal("out-of-domain constant must be rejected")
	}
	if eng.Generation() != gen || eng.UpdatesApplied() != 0 {
		t.Fatal("rejected delta must leave the engine untouched")
	}
	q := InferOptions{MaxFlips: 10_000, Seed: 3}
	if _, err := eng.InferMAP(ctx, q); err != nil {
		t.Fatalf("engine must keep serving after a rejected delta: %v", err)
	}
}

// faultDisk fails exactly one read after a countdown — deterministic
// mid-update failure injection (the incremental re-ground reads the
// predicate tables through the buffer pool). Single-shot, so the rollback
// that follows the failure runs on a healthy disk.
type faultDisk struct {
	storage.Disk
	reads     atomic.Int64
	failAfter atomic.Int64 // negative = never fail
}

func (d *faultDisk) ReadPage(id storage.PageID, buf []byte) error {
	n := d.reads.Add(1)
	if fa := d.failAfter.Load(); fa >= 0 && n > fa && d.failAfter.CompareAndSwap(fa, -1) {
		return fmt.Errorf("injected read fault (read %d)", n)
	}
	return d.Disk.ReadPage(id, buf)
}

// A mid-update storage failure must roll the tables back, keep the
// previous epoch serving bit-identically, leak no tables, and leave the
// delta retryable — the retry publishing the same network a fresh Ground
// over the merged evidence builds.
func TestUpdateEvidenceFaultKeepsPreviousEpochAndRetries(t *testing.T) {
	ctx := context.Background()
	ds := ieSmall()
	delta := datagen.RandomDelta(ds, "hint", 8, 42)
	q := InferOptions{MaxFlips: 10_000, Seed: 5}
	// A tiny buffer pool forces real disk reads during the update (with the
	// default pool the whole dataset stays cached and no read would fail).
	mkCfg := func(d storage.Disk) EngineConfig {
		return EngineConfig{DB: db.Config{Disk: d, BufferPoolPages: 2}}
	}

	// Calibration run on a healthy disk: learn how many reads grounding
	// takes (A) and how many the whole update takes (B). Reads are
	// deterministic (single-threaded, same seeds), so a fault injected
	// between A and B lands mid-update in the real run.
	calDisk := &faultDisk{Disk: storage.NewMemDisk()}
	calDisk.failAfter.Store(-1)
	cal := groundedEngine(t, ds.Prog, ds.Ev.Clone(), mkCfg(calDisk))
	if _, err := cal.InferMAP(ctx, q); err != nil {
		t.Fatal(err)
	}
	a := calDisk.reads.Load()
	if _, err := cal.UpdateEvidence(ctx, delta); err != nil {
		t.Fatal(err)
	}
	b := calDisk.reads.Load()
	if b <= a {
		t.Fatalf("update performed no reads (a=%d b=%d); fault injection impossible", a, b)
	}

	disk := &faultDisk{Disk: storage.NewMemDisk()}
	disk.failAfter.Store(-1)
	eng := groundedEngine(t, ds.Prog, ds.Ev.Clone(), mkCfg(disk))
	want, err := eng.InferMAP(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	tablesBefore := append([]string(nil), eng.DB().TableNames()...)
	sort.Strings(tablesBefore)

	disk.failAfter.Store(disk.reads.Load() + (b-a)/2)
	if _, err := eng.UpdateEvidence(ctx, delta); err == nil {
		t.Fatal("expected the injected fault to fail the update")
	}
	if eng.Generation() != 0 {
		t.Fatalf("failed update advanced the epoch to %d", eng.Generation())
	}
	tablesAfter := append([]string(nil), eng.DB().TableNames()...)
	sort.Strings(tablesAfter)
	if fmt.Sprint(tablesBefore) != fmt.Sprint(tablesAfter) {
		t.Fatalf("failed update leaked tables:\nbefore %v\nafter  %v", tablesBefore, tablesAfter)
	}
	got, err := eng.InferMAP(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	requireSameMAP(t, "after failed update", got, want)

	// Heal the disk and retry the identical delta: it must now commit and
	// match a fresh Ground over the merged evidence bit-identically.
	disk.failAfter.Store(-1)
	if _, err := eng.UpdateEvidence(ctx, delta); err != nil {
		t.Fatalf("retry after rollback: %v", err)
	}
	fresh := groundedEngine(t, ds.Prog, mergedEvidence(t, ds.Ev, delta), EngineConfig{})
	gotM, err := eng.InferMAP(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	wantM, err := fresh.InferMAP(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	requireSameMAP(t, "retried update", gotM, wantM)
}

// A context that is already dead stops the update before it mutates
// anything; the previous epoch keeps serving and the delta is retryable.
func TestUpdateEvidenceCanceledLeavesEngineServing(t *testing.T) {
	ds := rcSmall()
	eng := groundedEngine(t, ds.Prog, ds.Ev.Clone(), EngineConfig{})
	delta := datagen.RandomDelta(ds, "refers", 4, 7)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.UpdateEvidence(canceled, delta); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if eng.Generation() != 0 || eng.UpdatesApplied() != 0 {
		t.Fatal("canceled update must not commit")
	}
	if _, err := eng.UpdateEvidence(context.Background(), delta); err != nil {
		t.Fatalf("retry after cancellation: %v", err)
	}
}

// Queries racing an update stream must each be bit-identical to the answer
// for the epoch they ran on: epochs alternate between the base evidence
// (even) and base+delta (odd), so every concurrent result is checked
// against the matching reference engine. Runs under -race in CI.
func TestConcurrentQueriesDuringUpdatesBitIdentical(t *testing.T) {
	ctx := context.Background()
	ds := rcSmall()
	eng := groundedEngine(t, ds.Prog, ds.Ev.Clone(), EngineConfig{})
	delta := datagen.RandomDelta(ds, "refers", 6, 99)

	q := InferOptions{MaxFlips: 8_000, Seed: 4}
	refEven := groundedEngine(t, ds.Prog, ds.Ev.Clone(), EngineConfig{})
	wantEven, err := refEven.InferMAP(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	refOdd := groundedEngine(t, ds.Prog, mergedEvidence(t, ds.Ev, delta), EngineConfig{})
	wantOdd, err := refOdd.InferMAP(ctx, q)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r, err := eng.InferMAP(ctx, q)
				if err != nil {
					errCh <- err
					return
				}
				want := wantEven
				if r.Epoch%2 == 1 {
					want = wantOdd
				}
				if r.Cost != want.Cost || r.Flips != want.Flips || !sameStates(r.State, want.State) {
					errCh <- fmt.Errorf("epoch %d answer diverges from its reference", r.Epoch)
					return
				}
			}
		}()
	}

	next := delta
	for i := 0; i < 6; i++ {
		ur, err := eng.UpdateEvidence(ctx, next)
		if err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		next = ur.Inverse
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if eng.Generation() != 6 {
		t.Fatalf("generation = %d, want 6", eng.Generation())
	}
	// After three delta+inverse round trips the engine is back on the base
	// evidence: answers must match the even reference bit-identically.
	final, err := eng.InferMAP(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	requireSameMAP(t, "final", final, wantEven)
}

// TestServerUpdateEvidenceSweepsAndRetainsCache drives the serving layer
// through an identical (no-op) update — every cache entry must survive and
// be served as a verified hit — and then a real update, which must sweep
// the superseded epoch's entries and recompute on the new one.
func TestServerUpdateEvidenceSweepsAndRetainsCache(t *testing.T) {
	ctx := context.Background()
	ds := ieSmall()
	eng := groundedEngine(t, ds.Prog, ds.Ev.Clone(), EngineConfig{})
	srv, err := Serve(ServerConfig{}, eng)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	mapReq := InferOptions{MaxFlips: 10_000, Seed: 5}
	margReq := InferOptions{Samples: 40, Seed: 9}
	wantMAP, err := srv.InferMAP(ctx, mapReq)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.InferMarginal(ctx, margReq); err != nil {
		t.Fatal(err)
	}

	// Re-asserting existing evidence at its current truth is a logical
	// no-op: the grounded network is unchanged, so the epoch — and both
	// cache entries — stay live.
	hint, _ := ds.Prog.Predicate("hint")
	var noop mln.Delta
	ds.Ev.ForEach(hint, func(args []int32, truth mln.Truth) {
		if noop.Len() == 0 {
			noop.Upsert(hint, append([]int32(nil), args...), truth)
		}
	})
	if noop.Len() == 0 {
		t.Fatal("no hint evidence to re-assert")
	}
	ur, err := srv.UpdateEvidence(ctx, noop)
	if err != nil {
		t.Fatal(err)
	}
	if !ur.Identical {
		t.Fatalf("insert+retract batch not detected as identical: %+v", ur)
	}
	m := srv.Metrics()
	if m.Epoch != 0 || m.UpdatesApplied != 1 {
		t.Fatalf("after no-op update: epoch %d updates %d", m.Epoch, m.UpdatesApplied)
	}
	if m.CacheInvalidated != 0 || m.CacheRetained != 2 {
		t.Fatalf("no-op update swept the cache: invalidated %d retained %d",
			m.CacheInvalidated, m.CacheRetained)
	}
	hitsBefore := m.CacheHits
	again, err := srv.InferMAP(ctx, mapReq)
	if err != nil {
		t.Fatal(err)
	}
	requireSameMAP(t, "cache hit after no-op update", again, wantMAP)
	if got := srv.Metrics().CacheHits; got != hitsBefore+1 {
		t.Fatalf("surviving entry not served as a hit: hits %d -> %d", hitsBefore, got)
	}

	// A real delta publishes a new epoch: the old entries are swept and the
	// same query recomputes, matching a fresh Ground over merged evidence.
	delta := datagen.RandomDelta(ds, "hint", 6, 21)
	ur, err = srv.UpdateEvidence(ctx, delta)
	if err != nil {
		t.Fatal(err)
	}
	if ur.Identical {
		t.Skip("random delta happened to be a logical no-op")
	}
	m = srv.Metrics()
	if m.Epoch != 1 || m.UpdatesApplied != 2 {
		t.Fatalf("after real update: epoch %d updates %d", m.Epoch, m.UpdatesApplied)
	}
	if m.CacheInvalidated != 2 || m.CacheRetained != 2 {
		t.Fatalf("real update sweep wrong: invalidated %d retained %d",
			m.CacheInvalidated, m.CacheRetained)
	}
	missesBefore := m.CacheMisses
	got, err := srv.InferMAP(ctx, mapReq)
	if err != nil {
		t.Fatal(err)
	}
	if srv.Metrics().CacheMisses != missesBefore+1 {
		t.Fatal("post-update query served from a stale cache entry")
	}
	merged := mergedEvidence(t, ds.Ev, noop) // no-op left evidence unchanged
	merged2 := mergedEvidence(t, merged, delta)
	fresh := groundedEngine(t, ds.Prog, merged2, EngineConfig{})
	want, err := fresh.InferMAP(ctx, mapReq)
	if err != nil {
		t.Fatal(err)
	}
	requireSameMAP(t, "post-update recompute", got, want)
}

// TestServerUpdateCompensatesOnBackendFailure: the top-down grounder has
// no incremental path, so a Server over a TopDown engine fails the update.
// It must stay on epoch 0 and keep serving answers bit-identical to the
// ones it gave before the update, from cache and from a fresh run alike.
func TestServerUpdateCompensatesOnBackendFailure(t *testing.T) {
	ctx := context.Background()
	ds := ieSmall()
	eng := groundedEngine(t, ds.Prog, ds.Ev.Clone(), EngineConfig{Grounder: TopDown})
	srv, err := Serve(ServerConfig{}, eng)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	req := InferOptions{MaxFlips: 10_000, Seed: 5}
	want, err := srv.InferMAP(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	delta := datagen.RandomDelta(ds, "hint", 6, 33)
	if _, err := srv.UpdateEvidence(ctx, delta); err == nil {
		t.Fatal("expected the top-down engine to fail the update")
	}
	if g := eng.Generation(); g != 0 {
		t.Fatalf("failed update advanced the engine to epoch %d", g)
	}
	if m := srv.Metrics(); m.Epoch != 0 || m.UpdatesApplied != 0 {
		t.Fatalf("failed update counted: epoch %d, %d updates applied", m.Epoch, m.UpdatesApplied)
	}
	cached, err := srv.InferMAP(ctx, req)
	if err != nil {
		t.Fatalf("server stopped serving after failed update: %v", err)
	}
	requireSameMAP(t, "cached answer after failed update", cached, want)
	fresh, err := eng.InferMAP(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	requireSameMAP(t, "fresh run after failed update", fresh, want)
}
