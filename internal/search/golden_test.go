package search

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"testing"

	"tuffy/internal/datagen"
	"tuffy/internal/db"
	"tuffy/internal/grounding"
	"tuffy/internal/mrf"
	"tuffy/internal/partition"
)

// updateGolden rewrites testdata/golden.json from the code under test. The
// committed file was captured at the commit BEFORE the shared search index
// existed, so a passing run proves the index, the per-worker scratch and
// the reusable chain buffers changed no RNG draw, candidate order or float
// summation anywhere.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.json")

const goldenPath = "testdata/golden.json"

type goldenEntry struct {
	CostBits string `json:"cost,omitempty"` // float64 bits, hex
	Flips    int64  `json:"flips,omitempty"`
	Hash     string `json:"hash"` // state bools or probability bits
}

func hashBools(s []bool) string {
	h := fnv.New64a()
	for _, b := range s {
		if b {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func hashFloats(p []float64) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range p {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func mapEntry(r *ComponentResult) goldenEntry {
	return goldenEntry{
		CostBits: fmt.Sprintf("%016x", math.Float64bits(r.BestCost)),
		Flips:    r.Flips,
		Hash:     hashBools(r.Best),
	}
}

// goldenDataset is one small grounded network with the decompositions the
// four entry points need.
type goldenDataset struct {
	name  string
	m     *mrf.MRF
	comps []*mrf.Component        // connected components
	parts *partition.Partitioning // Algorithm 3 under a bound that cuts where it can
}

func groundDataset(t testing.TB, ds *datagen.Dataset) *mrf.MRF {
	t.Helper()
	ts, err := grounding.BuildTables(db.Open(db.Config{}), ds.Prog, ds.Ev)
	if err != nil {
		t.Fatal(err)
	}
	res, err := grounding.GroundBottomUp(context.Background(), ts, grounding.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.MRF
}

func goldenDatasets(t testing.TB) []goldenDataset {
	t.Helper()
	specs := []struct {
		ds   *datagen.Dataset
		beta int
	}{
		{datagen.IE(datagen.IEConfig{Chains: 40, Seed: 5}), 6},
		{datagen.RC(datagen.RCConfig{Papers: 80, Authors: 30, Categories: 4, Clusters: 10, Seed: 5}), 60},
		{datagen.ER(datagen.ERConfig{Records: 12, Groups: 4, Seed: 5}), 400},
		{datagen.LP(datagen.LPConfig{Profs: 4, Students: 14, Courses: 8, Seed: 5}), 200},
	}
	out := make([]goldenDataset, len(specs))
	for i, s := range specs {
		m := groundDataset(t, s.ds)
		out[i] = goldenDataset{
			name:  s.ds.Name,
			m:     m,
			comps: m.Components(false),
			parts: partition.Algorithm3(m, s.beta),
		}
	}
	return out
}

func partComponents(pt *partition.Partitioning) []*mrf.Component {
	comps := make([]*mrf.Component, len(pt.Parts))
	for i, p := range pt.Parts {
		comps[i] = &mrf.Component{MRF: p.Local, GlobalAtom: p.GlobalAtom}
	}
	return comps
}

// goldenRuns evaluates every (entry point, seed) cell of one dataset at the
// given parallelism. Keys carry no parallelism: every worker count must
// produce the same cell.
func goldenRuns(t testing.TB, d goldenDataset, par int) map[string]goldenEntry {
	t.Helper()
	ctx := context.Background()
	out := map[string]goldenEntry{}
	for _, seed := range []int64{1, 2, 3} {
		key := func(algo string) string { return fmt.Sprintf("%s/%s/seed%d", d.name, algo, seed) }
		base := Options{MaxFlips: 20_000, Seed: seed}

		ca, err := ComponentAware(ctx, d.m, d.comps, ComponentOptions{Base: base, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		out[key("ComponentAware")] = mapEntry(ca)

		// The Engine's configuration: partition parts as components, a memo
		// (content-hash seeds, power-of-two budgets). Run twice over one
		// memo, each pass on freshly built local MRFs, so the second answer
		// is assembled from content-keyed hits.
		memo := NewComponentMemo(0)
		for pass := 0; pass < 2; pass++ {
			cm, err := ComponentAware(ctx, d.m, partComponents(partition.Algorithm3(d.m, 0)),
				ComponentOptions{Base: base, Parallelism: par, Memo: memo})
			if err != nil {
				t.Fatal(err)
			}
			out[key(fmt.Sprintf("ComponentAwareMemo/pass%d", pass))] = mapEntry(cm)
		}

		gs, err := GaussSeidel(ctx, d.parts, GaussSeidelOptions{Base: Options{MaxFlips: 4000, Seed: seed}, Rounds: 3, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		out[key("GaussSeidel")] = mapEntry(gs)

		mo := MCSATOptions{Samples: 30, BurnIn: 3, SampleSATFlips: 2000, Seed: seed}
		pc, err := MCSATComponents(ctx, d.m, d.comps, mo, par)
		if err != nil {
			t.Fatal(err)
		}
		out[key("MCSATComponents")] = goldenEntry{Hash: hashFloats(pc)}

		pg, err := GaussMCSAT(ctx, d.parts, mo, par)
		if err != nil {
			t.Fatal(err)
		}
		out[key("GaussMCSAT")] = goldenEntry{Hash: hashFloats(pg)}
	}
	return out
}

// TestGoldenBitIdentity pins ComponentAware, GaussSeidel, MCSATComponents
// and GaussMCSAT on small IE/RC/ER/LP networks × 3 seeds × Parallelism
// 1/2/4 to the cost bits, flip counts, state hashes and probability bits
// the parent commit produced.
func TestGoldenBitIdentity(t *testing.T) {
	datasets := goldenDatasets(t)
	if *updateGolden {
		all := map[string]goldenEntry{}
		for _, d := range datasets {
			if d.name != "IE" && d.parts.NumCut() == 0 {
				t.Fatalf("%s: partition bound cuts nothing; Gauss-Seidel cells would not exercise cut projection", d.name)
			}
			for k, v := range goldenRuns(t, d, 1) {
				all[k] = v
			}
		}
		buf, err := json.MarshalIndent(all, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]goldenEntry
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, d := range datasets {
		for _, par := range []int{1, 2, 4} {
			for k, got := range goldenRuns(t, d, par) {
				w, ok := want[k]
				if !ok {
					t.Errorf("%s: no golden entry", k)
					continue
				}
				if got != w {
					t.Errorf("%s at parallelism %d: got %+v, want %+v", k, par, got, w)
				}
				if par == 1 {
					seen++
				}
			}
		}
	}
	if seen != len(want) {
		t.Errorf("golden file has %d entries, test produced %d", len(want), seen)
	}
}
