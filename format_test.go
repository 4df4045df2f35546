package tuffy

// Format-pinning tests. testdata/format/snapshot.tfy pins the snapshot this
// build writes (version 3: evidence, atom registry, raw groundings and
// their stats; no assembled network) byte for byte; -update-formats
// regenerates it when the format is MEANT to change. testdata/format/datadir
// is a whole data directory an older build left behind — a version-2
// snapshot, which still carried the assembled network, one WAL delta record
// and the result cache that build persisted — and it is never regenerated
// from the code under test (-update-datadir-fixture exists only to rebuild
// it on a build that writes that older format), so a passing run proves a
// DataDir from an older build opens here. The other direction does not
// hold: an older build refuses a version-3 directory with a typed version
// error (codec.ErrMalformed, "snapshot version 3"), never a silent cold
// start. internal/mln pins the WAL delta record the same way.

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

	"tuffy/internal/mln"
)

// updateFormats rewrites testdata/format/snapshot.tfy from the code under
// test. Only run it when the format is MEANT to change — and then bump
// snapshotVersion too. updateDatadir rewrites the older build's data
// directory; running it on this build would turn the compatibility check
// into a self-check.
var (
	updateFormats = flag.Bool("update-formats", false, "rewrite testdata/format/snapshot.tfy from the code under test")
	updateDatadir = flag.Bool("update-datadir-fixture", false, "rewrite testdata/format/datadir from the code under test")
)

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

	// The golden file warm-starts onto the grounded network, bit for bit.
	warmDir := t.TempDir()
	copyFixture(t, formatDir, warmDir, []string{snapshotFile})
	warm := figure1Engine(t, EngineConfig{DataDir: warmDir})
	defer warm.Close()
	if st := warm.DurabilityStats(); !st.WarmStart || warm.Generation() != 0 || warm.GroundTime() != 42*time.Millisecond {
		t.Fatalf("golden snapshot opens with warm start %v, gen %d, ground time %v",
			st.WarmStart, warm.Generation(), warm.GroundTime())
	}
	requireSameNetwork(t, "golden snapshot", warm.Grounded(), eng.Grounded())
}

// ---- a whole data directory written by an older build ----

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
	fixtureMAP  = InferOptions{MaxFlips: 20_000, Seed: 7}
	fixtureMarg = InferOptions{Samples: 60, Seed: 5}
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

// fixtureFiles are the engine's durable files, laid out as tuffyd -data
// lays them out. The fixture also holds the cache.tfy an older tuffyd
// persisted beside them; nothing reads that file any more.
var fixtureFiles = []string{"replica0/" + snapshotFile, "replica0/" + walFile}

// copyFixture copies files from one data directory to another.
func copyFixture(t *testing.T, from, to string, files []string) {
	t.Helper()
	for _, f := range files {
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
// leaves it: a snapshot from Ground and one un-checkpointed delta in the
// WAL. expect.json records the answers served on the post-update epoch.
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
	m, err := eng.InferMAP(ctx, fixtureMAP)
	if err != nil {
		t.Fatal(err)
	}
	g, err := eng.InferMarginal(ctx, fixtureMarg)
	if err != nil {
		t.Fatal(err)
	}
	// The "crash": copy the files out while the engine is still open, so no
	// Close-time checkpoint folds the delta into the snapshot.
	copyFixture(t, dir, fixtureDir, fixtureFiles)
	x, err := json.MarshalIndent(observe(eng, m, g), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(fixtureDir, "expect.json"), append(x, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	eng.Close()
}

func TestDataDirFromParentCommitWarmStarts(t *testing.T) {
	if *updateDatadir {
		writeFixture(t)
	}
	ctx := context.Background()
	var want fixtureExpect
	if err := json.Unmarshal(mustRead(t, filepath.Join(fixtureDir, "expect.json")), &want); err != nil {
		t.Fatal(err)
	}
	// Opening replays and re-checkpoints, so work on a copy, leftover
	// cache.tfy included.
	dir := t.TempDir()
	copyFixture(t, fixtureDir, dir, append(fixtureFiles, "cache.tfy"))

	eng := figure1Engine(t, EngineConfig{DataDir: filepath.Join(dir, "replica0")})
	defer eng.Close()
	ds := eng.DurabilityStats()
	if !ds.WarmStart || ds.ReplayedDeltas != 1 || eng.Generation() != want.Epoch {
		t.Fatalf("warm start %v, %d deltas replayed, epoch %d; want a warm start replaying 1 delta onto epoch %d",
			ds.WarmStart, ds.ReplayedDeltas, eng.Generation(), want.Epoch)
	}
	srv, err := Serve(ServerConfig{}, eng)
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
	// The result cache starts empty: the recovered epoch recomputes both
	// answers, bit-identical to the ones served before the crash.
	if mt := srv.Metrics(); mt.CacheHits != 0 || mt.CacheMisses != 2 {
		t.Fatalf("%d hits / %d misses; want both answers recomputed", mt.CacheHits, mt.CacheMisses)
	}
	if got := observe(eng, m, g); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered answers differ from the fixture writer's:\n got %+v\nwant %+v", got, want)
	}
}
