package tuffy

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"tuffy/internal/datagen"
	"tuffy/internal/mrf"
	"tuffy/internal/search"
)

// rcServe is the RC network at the size the rc-serve benchmark workload
// serves.
func rcServe() *datagen.Dataset {
	return datagen.RC(datagen.RCConfig{Papers: 1200, Authors: 500, Categories: 8, Clusters: 200, Seed: 1})
}

// noCutBudget is a memory budget whose Algorithm 3 bound no merge over m
// can exceed: partitioning runs its weight-sorted bounded scan and cuts
// nothing.
func noCutBudget(m *mrf.MRF) int64 {
	units := int64(m.NumAtoms) + 1
	for ci := range m.W {
		c := m.Clause(ci)
		units += int64(len(c.Lits))
	}
	return 20 * units
}

// Auto-mode marginals sample exactly what component-factorized MC-SAT over
// Components(true) samples: bit-identical probabilities with no budget and
// with a budget that cuts nothing, at every parallelism — whatever the
// engine derives its decomposition from.
func TestMarginalMatchesComponentsMCSAT(t *testing.T) {
	ctx := context.Background()
	for _, ds := range []*datagen.Dataset{rcServe(), datagen.IE(datagen.IEConfig{Chains: 200, Seed: 12})} {
		plain := groundedEngine(t, ds.Prog, ds.Ev.Clone(), EngineConfig{})
		m := plain.Grounded().MRF
		comps := m.Components(true)
		if len(comps) < 2 {
			t.Fatalf("%s: %d components, want a decomposing network", ds.Name, len(comps))
		}
		budgeted := groundedEngine(t, ds.Prog, ds.Ev.Clone(), EngineConfig{MemoryBudgetBytes: noCutBudget(m)})
		for _, eng := range []*Engine{plain, budgeted} {
			for _, par := range []int{1, 2} {
				tag := fmt.Sprintf("%s budget=%d par=%d", ds.Name, eng.cfg.MemoryBudgetBytes, par)
				q := InferOptions{Samples: 10, Seed: 3, Parallelism: par}
				got, err := eng.InferMarginal(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				want, err := search.MCSATComponents(ctx, m, comps, mcsatOptions(q.Samples, q.Seed), par)
				if err != nil {
					t.Fatal(err)
				}
				if len(got.Probs) != m.NumAtoms {
					t.Fatalf("%s: %d marginals for %d atoms", tag, len(got.Probs), m.NumAtoms)
				}
				for i, p := range got.Probs {
					if math.Float64bits(p.P) != math.Float64bits(want[i+1]) {
						t.Fatalf("%s: atom %d marginal %v, component MC-SAT %v", tag, i+1, p.P, want[i+1])
					}
				}
			}
		}
	}
}

// requireSampledAreParts asserts that the networks both query kinds run
// over on ep are the partitioning's own parts, by pointer.
func requireSampledAreParts(t *testing.T, tag string, e *Engine, ep *epoch) {
	t.Helper()
	pt := ep.decomposed()
	if pt == nil {
		t.Fatalf("%s: no decomposition built", tag)
	}
	shared, comps := ep.decomposition(e.partitionBeta())
	if shared != pt || pt.NumCut() != 0 {
		t.Fatalf("%s: decomposition is not the epoch's cut-free partitioning", tag)
	}
	// Marginal sampling runs over comps, MAP search over splitParts' list.
	inMem, oversized := e.splitParts(pt, comps)
	for _, list := range [][]*mrf.Component{comps, inMem} {
		if len(list) != len(pt.Parts) || len(oversized) != 0 {
			t.Fatalf("%s: %d components (%d oversized) over %d parts", tag, len(list), len(oversized), len(pt.Parts))
		}
		for i, c := range list {
			if c.MRF != pt.Parts[i].Local {
				t.Fatalf("%s: component %d is not part %d's local network", tag, i, i)
			}
		}
	}
}

// One decomposition per epoch: after a MAP and a marginal query the
// networks marginal sampling runs over are the parts MAP searched, and an
// update carries the untouched ones into the next epoch by pointer, still
// shared by both kinds.
func TestOneDecompositionPerEpoch(t *testing.T) {
	ctx := context.Background()
	ds := rcSmall()
	eng := groundedEngine(t, ds.Prog, ds.Ev.Clone(), EngineConfig{})
	if _, err := eng.InferMAP(ctx, InferOptions{MaxFlips: 20_000, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.InferMarginal(ctx, InferOptions{Samples: 20, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	old := eng.cur.Load()
	requireSampledAreParts(t, "before update", eng, old)

	ur := mustUpdate(t, eng, datagen.RandomDelta(ds, "refers", 4, 99))
	if ur.Identical {
		t.Fatal("delta is a logical no-op; pick another seed")
	}
	cur := eng.cur.Load()
	requireSampledAreParts(t, "after update", eng, cur)
	oldLocal := map[*mrf.MRF]bool{}
	for _, p := range old.decomposed().Parts {
		oldLocal[p.Local] = true
	}
	shared := 0
	for _, p := range cur.decomposed().Parts {
		if oldLocal[p.Local] {
			shared++
		}
	}
	if shared == 0 || shared != ur.PartsReused || shared == len(cur.decomposed().Parts) {
		t.Fatalf("%d of %d parts shared with the previous epoch, update reports %d reused",
			shared, len(cur.decomposed().Parts), ur.PartsReused)
	}
}

// Only Auto mode touches the decomposition: a monolithic or in-database
// marginal on a fresh epoch leaves it unbuilt.
func TestWholeNetworkMarginalBuildsNoDecomposition(t *testing.T) {
	ctx := context.Background()
	ds := rcSmall()
	for _, mode := range []SearchMode{InMemoryMonolithic, InDatabase} {
		eng := groundedEngine(t, ds.Prog, ds.Ev.Clone(), EngineConfig{})
		if _, err := eng.InferMarginal(ctx, InferOptions{Mode: mode, Samples: 20, Seed: 5}); err != nil {
			t.Fatal(err)
		}
		if eng.cur.Load().decomposed() != nil {
			t.Fatalf("mode %d: a whole-network marginal built the decomposition", mode)
		}
	}
}

// snapshotFlags rewrites (flags >= 0) or just reads the flags byte of a
// data directory's snapshot, resealing its checksum.
func snapshotFlags(t *testing.T, dir string, flags int) byte {
	t.Helper()
	path := filepath.Join(dir, snapshotFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	at := len(snapshotMagic) + 4 + 6*8 // magic, version, six u64 header fields
	if flags >= 0 {
		raw[at] = byte(flags)
		body := raw[:len(raw)-4]
		binary.LittleEndian.PutUint32(raw[len(raw)-4:], crc32.Checksum(body, snapCRCTable))
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return raw[at]
}

// A snapshot whose flags byte is 2 — what a snapshot from before the one-
// decomposition design set for its second component list — warm-starts
// with the decomposition pre-built and answers bit-identically to a
// never-restarted engine. The next checkpoint writes only bit 1.
func TestSnapshotFlag2PrebuildsDecomposition(t *testing.T) {
	ctx := context.Background()
	ds := rcSmall()
	mapQ := InferOptions{MaxFlips: 20_000, Seed: 7}
	margQ := InferOptions{Samples: 20, Seed: 5}
	ref := groundedEngine(t, ds.Prog, ds.Ev.Clone(), EngineConfig{})
	wantMAP, err := ref.InferMAP(ctx, mapQ)
	if err != nil {
		t.Fatal(err)
	}
	wantMarg, err := ref.InferMarginal(ctx, margQ)
	if err != nil {
		t.Fatal(err)
	}

	for _, flags := range []int{0, 2} {
		dir := t.TempDir()
		eng := openDurableIE(t, ds, dir, EngineConfig{})
		if err := eng.Ground(ctx); err != nil {
			t.Fatal(err)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		if got := snapshotFlags(t, dir, -1); got != 0 {
			t.Fatalf("an epoch that answered nothing checkpointed flags %d, want 0", got)
		}
		snapshotFlags(t, dir, flags)

		warm := openDurableIE(t, ds, dir, EngineConfig{})
		if !warm.DurabilityStats().WarmStart {
			t.Fatalf("flags %d: reopen did not warm-start", flags)
		}
		if built := warm.cur.Load().decomposed() != nil; built != (flags != 0) {
			t.Fatalf("flags %d: decomposition pre-built = %v", flags, built)
		}
		gotMAP, err := warm.InferMAP(ctx, mapQ)
		if err != nil {
			t.Fatal(err)
		}
		requireSameMAP(t, fmt.Sprintf("flags %d MAP", flags), gotMAP, wantMAP)
		gotMarg, err := warm.InferMarginal(ctx, margQ)
		if err != nil {
			t.Fatal(err)
		}
		requireSameMarginal(t, fmt.Sprintf("flags %d marginal", flags), gotMarg, wantMarg)

		mustUpdate(t, warm, datagen.RandomDelta(ds, "refers", 4, 99))
		if err := warm.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if got := snapshotFlags(t, dir, -1); got != 1 {
			t.Fatalf("flags %d: checkpoint of a decomposed epoch wrote flags %d, want 1", flags, got)
		}
		if err := warm.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
