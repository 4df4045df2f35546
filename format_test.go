package tuffy

// Format-pinning tests. The files under testdata/format were written by the
// commit BEFORE internal/codec replaced the per-file encoders, so a passing
// run proves the snapshot, the result-cache file and a whole data directory
// (snapshot + WAL delta + cache) are still produced and understood byte
// for byte: a DataDir from an older build opens on this one and vice versa.
// internal/wire and internal/mln pin their frames and the WAL delta record
// the same way.

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"tuffy/internal/codec"
	"tuffy/internal/mln"
)

// updateFormats rewrites the golden files from the code under test. Only
// run it when a format is MEANT to change — and then bump that format's
// version constant too.
var updateFormats = flag.Bool("update-formats", false, "rewrite testdata/format from the code under test")

const formatDir = "testdata/format"

// checkGolden compares got with the committed file (or rewrites it).
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join(formatDir, name)
	if *updateFormats {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: encoding changed (%d bytes, golden %d); first difference at byte %d",
			name, len(got), len(want), firstDiff(got, want))
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The Figure-1 snapshot. Grounding time is the one wall-clock field of the
// file, so it is pinned before the checkpoint that writes the golden bytes.
func TestGoldenSnapshot(t *testing.T) {
	dir := t.TempDir()
	eng := figure1Engine(t, EngineConfig{DataDir: dir})
	defer eng.Close()
	if err := eng.Ground(context.Background()); err != nil {
		t.Fatal(err)
	}
	eng.groundMu.Lock()
	eng.groundTime = 42 * time.Millisecond
	eng.groundMu.Unlock()
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapshotFile)
	checkGolden(t, "snapshot.tfy", mustRead(t, path))

	snap, err := readSnapshot(filepath.Join(formatDir, "snapshot.tfy"), eng.prog)
	if err != nil {
		t.Fatalf("golden snapshot does not decode: %v", err)
	}
	m := eng.Grounded().MRF
	if snap.gen != 0 || snap.groundTime != 42*time.Millisecond ||
		snap.numAtoms != m.NumAtoms || len(snap.clauses) != len(m.Clauses) ||
		math.Float64bits(snap.fixedCost) != math.Float64bits(m.FixedCost) {
		t.Fatalf("golden snapshot decodes to gen %d, ground time %v, %d atoms, %d clauses, cost %v",
			snap.gen, snap.groundTime, snap.numAtoms, len(snap.clauses), snap.fixedCost)
	}
	res, err := snap.buildResult(eng.prog)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.MRF.Clauses, m.Clauses) || !reflect.DeepEqual(res.MRF.Atoms, m.Atoms) {
		t.Fatal("golden snapshot's network differs from the grounded one")
	}
}

// goldenCacheEntries is a hand-built cache content: one MAP and one
// marginal answer with every field set, a state that crosses a byte
// boundary of the packed bitset and probabilities that are not round in
// binary.
func goldenCacheEntries(eng *Engine) (keys []string, vals []any) {
	atoms := eng.Grounded().MRF.Atoms
	return []string{"e0|map|0|7|20000|1|3", "e0|marg|0|5|60"}, []any{
		&MAPResult{
			Cost:           1.5,
			TrueAtoms:      []mln.GroundAtom{atoms[1], atoms[3]},
			State:          []bool{false, true, false, true, true, false, false, true, true, false, true},
			Flips:          1234,
			GroundTime:     5 * time.Millisecond,
			SearchTime:     7 * time.Millisecond,
			Partitions:     2,
			CutClauses:     1,
			InDBComponents: 3,
			Epoch:          0,
		},
		&MarginalResult{
			Probs: []AtomProb{{Atom: atoms[1], P: 0.25}, {Atom: atoms[2], P: 1.0 / 3}, {Atom: atoms[3], P: 1}},
			Epoch: 0,
		},
	}
}

func TestGoldenCacheFile(t *testing.T) {
	eng := figure1Engine(t, EngineConfig{})
	if err := eng.Ground(context.Background()); err != nil {
		t.Fatal(err)
	}
	keys, vals := goldenCacheEntries(eng)

	dir := t.TempDir()
	srv, err := Serve(ServerConfig{DataDir: dir}, eng)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		srv.cache.Put(k, vals[i])
	}
	if err := srv.Close(); err != nil { // persists the cache
		t.Fatal(err)
	}
	checkGolden(t, cacheFile, mustRead(t, filepath.Join(dir, cacheFile)))

	// Decode: a server started over the golden file holds exactly the
	// entries that were encoded.
	dir2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir2, cacheFile), mustRead(t, filepath.Join(formatDir, cacheFile)), 0o644); err != nil {
		t.Fatal(err)
	}
	srv2, err := Serve(ServerConfig{DataDir: dir2}, eng)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	var gotKeys []string
	var gotVals []any
	srv2.cache.ForEach(func(k string, v any) {
		gotKeys = append(gotKeys, k)
		gotVals = append(gotVals, v)
	})
	if !reflect.DeepEqual(gotKeys, keys) || !reflect.DeepEqual(gotVals, vals) {
		t.Fatalf("golden cache file decodes to %v / %+v", gotKeys, gotVals)
	}
}

// ---- a whole data directory written by the parent commit ----

// fixtureExpect records what the fixture's writer observed, so the reader
// can check it landed on the same epoch with the same answers.
type fixtureExpect struct {
	Epoch     uint64   `json:"epoch"`
	MAPCost   string   `json:"mapCost"` // float64 bits, hex
	MAPFlips  int64    `json:"mapFlips"`
	MAPState  string   `json:"mapState"` // one 0/1 per atom
	TrueAtoms []string `json:"trueAtoms"`
	Probs     []string `json:"probs"` // float64 bits, hex
}

const fixtureDir = formatDir + "/datadir"

var (
	fixtureMAP  = Request{Options: InferOptions{MaxFlips: 20_000, Seed: 7}}
	fixtureMarg = Request{Options: InferOptions{Samples: 60, Seed: 5}}
)

func bitString(s []bool) string {
	b := make([]byte, len(s))
	for i, v := range s {
		b[i] = '0'
		if v {
			b[i] = '1'
		}
	}
	return string(b)
}

func observe(eng *Engine, m *MAPResult, g *MarginalResult) fixtureExpect {
	x := fixtureExpect{
		Epoch:    m.Epoch,
		MAPCost:  fmt.Sprintf("%016x", math.Float64bits(m.Cost)),
		MAPFlips: m.Flips,
		MAPState: bitString(m.State),
	}
	for _, a := range m.TrueAtoms {
		x.TrueAtoms = append(x.TrueAtoms, eng.FormatAtom(a))
	}
	for _, p := range g.Probs {
		x.Probs = append(x.Probs, fmt.Sprintf("%016x", math.Float64bits(p.P)))
	}
	return x
}

// figure1Delta adds one citation, which grounds new F3 clauses: the update
// publishes epoch 1 and leaves one delta record in the WAL.
func figure1Delta(t *testing.T, prog *mln.Program) mln.Delta {
	t.Helper()
	p2, ok2 := prog.Syms.Lookup("P2")
	p3, ok3 := prog.Syms.Lookup("P3")
	if !ok2 || !ok3 {
		t.Fatal("Figure 1 constants missing")
	}
	var d mln.Delta
	d.Upsert(prog.MustPredicate("refers"), []int32{p2, p3}, mln.True)
	return d
}

// copyFixture copies the data directory's three files, laid out as
// tuffyd -data lays them out.
func copyFixture(t *testing.T, from, to string) {
	t.Helper()
	for _, f := range []string{"replica0/" + snapshotFile, "replica0/" + walFile, cacheFile} {
		dst := filepath.Join(to, f)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst, mustRead(t, filepath.Join(from, f)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// writeFixture builds the data directory the way a crashed tuffyd -data
// leaves it: a snapshot from Ground, one un-checkpointed delta in the WAL,
// and a checkpointed result cache filled on the post-update epoch.
func writeFixture(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	eng := figure1Engine(t, EngineConfig{DataDir: filepath.Join(dir, "replica0")})
	if err := eng.Ground(ctx); err != nil {
		t.Fatal(err)
	}
	if ur := mustUpdate(t, eng, figure1Delta(t, eng.prog)); ur.Identical || ur.Epoch != 1 {
		t.Fatalf("fixture delta did not publish epoch 1: %+v", ur)
	}
	srv, err := Serve(ServerConfig{DataDir: dir}, eng)
	if err != nil {
		t.Fatal(err)
	}
	m, err := srv.InferMAP(ctx, fixtureMAP)
	if err != nil {
		t.Fatal(err)
	}
	g, err := srv.InferMarginal(ctx, fixtureMarg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.CheckpointCache(); err != nil {
		t.Fatal(err)
	}
	// The "crash": copy the files out while the engine is still open, so no
	// Close-time checkpoint folds the delta into the snapshot.
	copyFixture(t, dir, fixtureDir)
	x, err := json.MarshalIndent(observe(eng, m, g), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(fixtureDir, "expect.json"), append(x, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	eng.Close()
}

func TestDataDirFromParentCommitWarmStarts(t *testing.T) {
	if *updateFormats {
		writeFixture(t)
	}
	ctx := context.Background()
	var want fixtureExpect
	if err := json.Unmarshal(mustRead(t, filepath.Join(fixtureDir, "expect.json")), &want); err != nil {
		t.Fatal(err)
	}
	// Opening replays and re-checkpoints, so work on a copy.
	dir := t.TempDir()
	copyFixture(t, fixtureDir, dir)

	eng := figure1Engine(t, EngineConfig{DataDir: filepath.Join(dir, "replica0")})
	defer eng.Close()
	ds := eng.DurabilityStats()
	if !ds.WarmStart || ds.ReplayedDeltas != 1 || eng.Generation() != want.Epoch {
		t.Fatalf("warm start %v, %d deltas replayed, epoch %d; want a warm start replaying 1 delta onto epoch %d",
			ds.WarmStart, ds.ReplayedDeltas, eng.Generation(), want.Epoch)
	}
	srv, err := Serve(ServerConfig{DataDir: dir}, eng)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	m, err := srv.InferMAP(ctx, fixtureMAP)
	if err != nil {
		t.Fatal(err)
	}
	g, err := srv.InferMarginal(ctx, fixtureMarg)
	if err != nil {
		t.Fatal(err)
	}
	if mt := srv.Metrics(); mt.CacheHits != 2 || mt.CacheMisses != 0 {
		t.Fatalf("%d hits / %d misses; want both answers served from the fixture's cache.tfy", mt.CacheHits, mt.CacheMisses)
	}
	if got := observe(eng, m, g); !reflect.DeepEqual(got, want) {
		t.Fatalf("cached answers differ from the fixture writer's:\n got %+v\nwant %+v", got, want)
	}
	// The recovered epoch recomputes the same answers cold.
	cm, err := eng.InferMAP(ctx, fixtureMAP.Options)
	if err != nil {
		t.Fatal(err)
	}
	cg, err := eng.InferMarginal(ctx, fixtureMarg.Options)
	if err != nil {
		t.Fatal(err)
	}
	if got := observe(eng, cm, cg); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered engine's cold answers differ from the fixture writer's:\n got %+v\nwant %+v", got, want)
	}
}

// FuzzLoadCache: cache.tfy is never a source of truth, so no body — here
// arbitrary bytes behind the right magic and a VALID checksum, i.e. past
// the only integrity check — may panic the load, and whatever the load
// kept, the cache still serves, fills and checkpoints.
func FuzzLoadCache(f *testing.F) {
	ctx := context.Background()
	prog, err := LoadProgramString(mln.Figure1Program)
	if err != nil {
		f.Fatal(err)
	}
	ev, err := LoadEvidenceString(prog, mln.Figure1Evidence)
	if err != nil {
		f.Fatal(err)
	}
	eng, err := Open(prog, ev, EngineConfig{})
	if err != nil {
		f.Fatal(err)
	}
	if err := eng.Ground(ctx); err != nil {
		f.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join(formatDir, cacheFile))
	if err != nil {
		f.Fatal(err)
	}
	body := golden[len(cacheMagic) : len(golden)-4]
	f.Add(body)
	f.Add(body[:len(body)/2])
	f.Add(body[:16]) // version, fingerprint, entry count — no entries
	f.Add(append(append([]byte(nil), body[:12]...), 0xFF, 0xFF, 0xFF, 0xFF))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		var w codec.Enc
		w.Raw([]byte(cacheMagic))
		w.Raw(body)
		dir := t.TempDir()
		if err := writeSealed(dir, cacheFile, &w, nil); err != nil {
			t.Fatal(err)
		}
		srv, err := Serve(ServerConfig{DataDir: dir}, eng)
		if err != nil {
			t.Fatal(err)
		}
		// Every entry the load kept must clone and re-encode.
		if err := srv.CheckpointCache(); err != nil {
			t.Fatal(err)
		}
		q := Request{Options: InferOptions{MaxFlips: 50, Seed: 99}}
		first, err := srv.InferMAP(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		again, err := srv.InferMAP(ctx, q)
		if err != nil || !sameStates(first.State, again.State) || srv.Metrics().CacheHits == 0 {
			t.Fatalf("cache unusable after loading a fuzzed file (err %v)", err)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	})
}
