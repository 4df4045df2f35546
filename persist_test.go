package tuffy

// Engine-level durability tests: warm-start bit-identity, the crash matrix
// over every injected fault point in the commit/checkpoint path, and torn-
// WAL-tail recovery.
//
// The invariant under test everywhere: reopening a DataDir after a crash
// (simulated by abandoning an engine without Close, optionally with a
// fault frozen mid-operation) recovers to exactly the pre- or post-
// operation epoch — never a state in between — and the recovered engine's
// answers are bit-identical to a never-crashed one's.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"tuffy/internal/codec"
	"tuffy/internal/datagen"
	"tuffy/internal/db"
	"tuffy/internal/db/storage"
	"tuffy/internal/grounding"
	"tuffy/internal/mln"
	"tuffy/internal/wal"
)

// openDurableIE opens (cold or warm) a durable engine over the small IE
// dataset. The base evidence is cloned per open, as a fresh process would
// re-parse it.
func openDurableIE(t *testing.T, ds *datagen.Dataset, dir string, cfg EngineConfig) *Engine {
	t.Helper()
	cfg.DataDir = dir
	eng, err := Open(ds.Prog, ds.Ev.Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func mustMAP(t *testing.T, eng *Engine, seed int64) *MAPResult {
	t.Helper()
	res, err := eng.InferMAP(context.Background(), InferOptions{MaxFlips: 20_000, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func mustUpdate(t *testing.T, eng *Engine, d mln.Delta) *UpdateResult {
	t.Helper()
	ur, err := eng.UpdateEvidence(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	return ur
}

// requireSameNetwork compares two grounded networks bit for bit: clause
// weights and the fixed cost as float bits, the CSR offsets and literals,
// the atom descriptors, and the registry aid behind every atom.
func requireSameNetwork(t *testing.T, tag string, got, want *grounding.Result) {
	t.Helper()
	g, w := got.MRF, want.MRF
	if g.NumAtoms != w.NumAtoms || math.Float64bits(g.FixedCost) != math.Float64bits(w.FixedCost) {
		t.Fatalf("%s: %d atoms, fixed cost %v; want %d, %v", tag, g.NumAtoms, g.FixedCost, w.NumAtoms, w.FixedCost)
	}
	if !slices.EqualFunc(g.W, w.W, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
		t.Fatalf("%s: clause weights differ", tag)
	}
	if !slices.Equal(g.Off, w.Off) || !slices.Equal(g.Lits, w.Lits) {
		t.Fatalf("%s: clause offsets or literals differ", tag)
	}
	if !reflect.DeepEqual(g.Atoms, w.Atoms) || !slices.Equal(got.TableAid, want.TableAid) {
		t.Fatalf("%s: atom descriptors or registry aids differ", tag)
	}
}

// A closed engine's DataDir must warm-start: the network bit-identical to
// the live engine's after an update, epoch, update count, and both MAP and
// marginal answers bit-identical too — without Ground ever running.
func TestWarmStartBitIdentical(t *testing.T) {
	ctx := context.Background()
	ds := ieSmall()
	dir := t.TempDir()

	eng := openDurableIE(t, ds, dir, EngineConfig{})
	if ds := eng.DurabilityStats(); !ds.Enabled || ds.WarmStart {
		t.Fatalf("fresh durable engine: stats %+v, want enabled cold start", ds)
	}
	if err := eng.Ground(ctx); err != nil {
		t.Fatal(err)
	}
	mustUpdate(t, eng, datagen.RandomDelta(ds, "hint", 8, 42))
	wantNet := eng.Grounded()
	wantMAP := mustMAP(t, eng, 7)
	wantMarg, err := eng.InferMarginal(ctx, InferOptions{Samples: 60, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	wantGen, wantUpdates := eng.Generation(), eng.UpdatesApplied()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	warm := openDurableIE(t, ds, dir, EngineConfig{})
	defer warm.Close()
	st := warm.DurabilityStats()
	if !st.WarmStart {
		t.Fatal("reopen did not warm-start")
	}
	if st.ReplayedDeltas != 0 {
		t.Fatalf("clean reopen replayed %d deltas, want 0", st.ReplayedDeltas)
	}
	if warm.Grounded() == nil {
		t.Fatal("warm engine is not serving-ready")
	}
	requireSameNetwork(t, "warm network", warm.Grounded(), wantNet)
	if warm.Generation() != wantGen || warm.UpdatesApplied() != wantUpdates {
		t.Fatalf("warm state: gen %d updates %d, want %d/%d",
			warm.Generation(), warm.UpdatesApplied(), wantGen, wantUpdates)
	}
	// Ground on a warm engine is a no-op (already grounded).
	if err := warm.Ground(ctx); err != nil {
		t.Fatal(err)
	}
	requireSameMAP(t, "warm MAP", mustMAP(t, warm, 7), wantMAP)
	gotMarg, err := warm.InferMarginal(ctx, InferOptions{Samples: 60, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	requireSameMarginal(t, "warm marginal", gotMarg, wantMarg)

	// The warm engine's grounder composes exactly: its post-update answers
	// match a never-crashed engine that applied the same two deltas.
	u2 := datagen.RandomDelta(ds, "hint", 8, 43)
	warmUR := mustUpdate(t, warm, u2)
	ref := groundedEngine(t, ds.Prog, ds.Ev.Clone(), EngineConfig{})
	mustUpdate(t, ref, datagen.RandomDelta(ds, "hint", 8, 42))
	refUR := mustUpdate(t, ref, u2)
	if warmUR.Epoch != refUR.Epoch {
		t.Fatalf("post-update epoch %d, want %d", warmUR.Epoch, refUR.Epoch)
	}
	requireSameNetwork(t, "post-update network", warm.Grounded(), ref.Grounded())
	requireSameMAP(t, "post-update MAP", mustMAP(t, warm, 7), mustMAP(t, ref, 7))
}

// The engine crash matrix: freeze the durable layer at every fault point
// in the update commit path and the checkpoint path, abandon the engine as
// a crash would, and verify recovery lands on exactly the pre- or post-
// update epoch.
//
// For the delta.* points the update's commit never completes, so the
// update errors and recovery must produce the pre-update answers. For the
// ckpt.* points (cadence 1, so U2's own checkpoint trips the fault) the
// update is already committed in the WAL when the checkpoint dies, so it
// must report success and recovery must produce the post-update answers.
func TestEngineCrashMatrix(t *testing.T) {
	ds := ieSmall()
	points := []struct {
		point     string
		committed bool // does U2 survive the crash?
	}{
		{"delta.append", false},
		{"delta.sync", false},
		{"ckpt.snapshot", true},
		{"ckpt.rename", true},
		{"ckpt.reset", true},
	}
	for _, tc := range points {
		t.Run(tc.point, func(t *testing.T) {
			dir := t.TempDir()
			eng := openDurableIE(t, ds, dir, EngineConfig{})
			eng.dur.every = 1
			if err := eng.Ground(context.Background()); err != nil {
				t.Fatal(err)
			}
			u1 := datagen.RandomDelta(ds, "hint", 6, 21)
			u2 := datagen.RandomDelta(ds, "hint", 6, 22)
			mustUpdate(t, eng, u1)
			preMAP := mustMAP(t, eng, 7)
			preGen := eng.Generation()

			eng.dur.fault = func(p string) error {
				if p == tc.point {
					return fmt.Errorf("injected fault at %s", p)
				}
				return nil
			}
			ur, err := eng.UpdateEvidence(context.Background(), u2)
			var wantMAP *MAPResult
			var wantGen uint64
			if tc.committed {
				// The cadence checkpoint died after the commit point: the
				// update itself must succeed and count the failure.
				if err != nil {
					t.Fatalf("update after commit point failed: %v", err)
				}
				if eng.DurabilityStats().CheckpointFailures == 0 {
					t.Fatal("checkpoint failure not recorded")
				}
				wantMAP, wantGen = mustMAP(t, eng, 7), ur.Epoch
			} else {
				if err == nil {
					t.Fatal("update with a dead commit path reported success")
				}
				wantMAP, wantGen = preMAP, preGen
			}
			// Abandon eng without Close: the frozen files are the crash image.
			warm := openDurableIE(t, ds, dir, EngineConfig{})
			defer warm.Close()
			if !warm.DurabilityStats().WarmStart {
				t.Fatal("recovery did not warm-start")
			}
			if warm.Generation() != wantGen {
				t.Fatalf("recovered generation %d, want %d", warm.Generation(), wantGen)
			}
			requireSameMAP(t, "recovered MAP", mustMAP(t, warm, 7), wantMAP)
		})
	}
}

// A torn WAL tail — the frame a crash cut short — must be truncated away,
// recovering the state just before the torn update. After the abandoned
// U2, the last frame in the log is U2's delta record (delta records are
// the only frames the engine writes), so corrupting the file's last byte
// tears exactly U2.
func TestTornWALTailRecoversPreUpdate(t *testing.T) {
	ds := ieSmall()
	dir := t.TempDir()
	eng := openDurableIE(t, ds, dir, EngineConfig{})
	if err := eng.Ground(context.Background()); err != nil {
		t.Fatal(err)
	}
	mustUpdate(t, eng, datagen.RandomDelta(ds, "hint", 6, 21))
	preNet := eng.Grounded()
	preMAP := mustMAP(t, eng, 7)
	preGen := eng.Generation()
	mustUpdate(t, eng, datagen.RandomDelta(ds, "hint", 6, 22))
	// Abandon the engine; then tear the last byte of the log.
	walPath := filepath.Join(dir, "wal.log")
	buf, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if types := walRecordTypes(t, buf); len(types) != 2 || types[0] != wal.TypeDelta || types[1] != wal.TypeDelta {
		t.Fatalf("WAL after two updates holds record types %v, want two deltas", types)
	}
	buf[len(buf)-1] ^= 0xFF
	if err := os.WriteFile(walPath, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	warm := openDurableIE(t, ds, dir, EngineConfig{})
	defer warm.Close()
	st := warm.DurabilityStats()
	if !st.WarmStart {
		t.Fatal("recovery did not warm-start")
	}
	if st.ReplayedDeltas != 1 {
		t.Fatalf("replayed %d deltas, want 1 (U1 only; torn U2 truncated)", st.ReplayedDeltas)
	}
	if warm.Generation() != preGen {
		t.Fatalf("recovered generation %d, want %d", warm.Generation(), preGen)
	}
	requireSameNetwork(t, "post-torn-tail network", warm.Grounded(), preNet)
	requireSameMAP(t, "post-torn-tail MAP", mustMAP(t, warm, 7), preMAP)
}

// walRecordTypes reads a copy of a log image and returns its record types.
func walRecordTypes(t *testing.T, img []byte) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	l, recs, err := wal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	types := make([]byte, len(recs))
	for i, r := range recs {
		types[i] = r.Type
	}
	return types
}

// A DataDir written by an engine that still logged page images (type-1
// frames ahead of the deltas) and kept a persistent page store (seg_* files
// under a meta file) must still warm-start: the page frame is skipped, the
// stale page files are discarded, and the delta after them replays onto
// exactly the epoch a never-crashed engine reaches.
func TestParentLayoutDataDirWarmStarts(t *testing.T) {
	ds := ieSmall()
	dir := t.TempDir()
	eng := openDurableIE(t, ds, dir, EngineConfig{})
	if err := eng.Ground(context.Background()); err != nil {
		t.Fatal(err)
	}
	if b := eng.DurabilityStats().WALAppendedBytes; b != 0 {
		t.Fatalf("Ground appended %d WAL bytes, want 0", b)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	delta := datagen.RandomDelta(ds, "hint", 6, 31)
	l, recs, err := wal.Open(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("closed engine left %d WAL records", len(recs))
	}
	page := make([]byte, 8+storage.PageSize) // file int32, num int32, image
	binary.LittleEndian.PutUint32(page, 1)
	for i := 8; i < len(page); i++ {
		page[i] = 0xAB
	}
	if _, err := l.Append(1, page); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(wal.TypeDelta, mln.EncodeDelta(mln.PredIndex(ds.Prog), delta)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// The page store as that engine left it: one segment of garbage pages,
	// and a meta file (magic, count, (file, live) pairs, CRC32C) claiming
	// them live.
	pages := filepath.Join(dir, pagesDir)
	if err := os.WriteFile(filepath.Join(pages, "seg_1"), bytes.Repeat([]byte{0xCD}, 4*storage.PageSize), 0o644); err != nil {
		t.Fatal(err)
	}
	meta := []byte("TFYDISK1")
	meta = binary.LittleEndian.AppendUint32(meta, 1)
	meta = binary.LittleEndian.AppendUint32(meta, 1)
	meta = binary.LittleEndian.AppendUint32(meta, 4)
	meta = binary.LittleEndian.AppendUint32(meta, crc32.Checksum(meta, crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(filepath.Join(pages, "meta"), meta, 0o644); err != nil {
		t.Fatal(err)
	}

	warm := openDurableIE(t, ds, dir, EngineConfig{})
	defer warm.Close()
	st := warm.DurabilityStats()
	if !st.WarmStart || st.ReplayedDeltas != 1 {
		t.Fatalf("warm start %v, %d deltas replayed; want a warm start replaying 1 delta", st.WarmStart, st.ReplayedDeltas)
	}
	ref := groundedEngine(t, ds.Prog, ds.Ev.Clone(), EngineConfig{})
	refUR := mustUpdate(t, ref, delta)
	if warm.Generation() != refUR.Epoch {
		t.Fatalf("recovered generation %d, want %d", warm.Generation(), refUR.Epoch)
	}
	requireSameMAP(t, "parent-layout MAP", mustMAP(t, warm, 7), mustMAP(t, ref, 7))
}

// A DataDir belongs to one program + base evidence: reopening it with a
// different program must fail loudly rather than silently cold-start over
// the old files.
func TestDataDirMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	ie := ieSmall()
	eng := openDurableIE(t, ie, dir, EngineConfig{})
	if err := eng.Ground(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	rc := rcSmall()
	if _, err := Open(rc.Prog, rc.Ev.Clone(), EngineConfig{DataDir: dir}); err == nil {
		t.Fatal("reopening a DataDir with a different program must fail")
	}
}

// UpdateEvidence failures before the commit point stay cleanly retryable
// on a durable engine: a canceled update rolls back, scrubs the WAL, and
// the same delta then applies — with recovery landing post-update.
func TestDurableUpdateCancelRetry(t *testing.T) {
	ds := ieSmall()
	dir := t.TempDir()
	eng := openDurableIE(t, ds, dir, EngineConfig{})
	if err := eng.Ground(context.Background()); err != nil {
		t.Fatal(err)
	}
	d := datagen.RandomDelta(ds, "hint", 6, 21)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.UpdateEvidence(canceled, d); !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled update: err = %v, want ErrCanceled", err)
	}
	ur := mustUpdate(t, eng, d)
	wantMAP := mustMAP(t, eng, 7)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	warm := openDurableIE(t, ds, dir, EngineConfig{})
	defer warm.Close()
	if warm.Generation() != ur.Epoch {
		t.Fatalf("recovered generation %d, want %d", warm.Generation(), ur.Epoch)
	}
	requireSameMAP(t, "retry-then-recover MAP", mustMAP(t, warm, 7), wantMAP)
}

// A delta record whose truth byte is none of Unknown/True/False must fail
// to decode, and fail the open as a corrupt record when the WAL holds it:
// applying it would store an evidence value the grounder does not know.
func TestMalformedDeltaRecordRejected(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	eng := figure1Engine(t, EngineConfig{DataDir: dir})
	if err := eng.Ground(ctx); err != nil {
		t.Fatal(err)
	}
	rec := mln.EncodeDelta(mln.PredIndex(eng.prog), figure1Delta(t, eng.prog))
	rec[8] = 3 // the first op's truth byte, after the op count and predicate index

	if _, err := mln.DecodeDelta(eng.prog, rec); !errors.Is(err, codec.ErrMalformed) || !strings.Contains(err.Error(), "truth value 3") {
		t.Fatalf("DecodeDelta: err = %v, want a malformed truth value", err)
	}

	// The same bytes as a committed WAL record, then a crash.
	lsn, err := eng.dur.log.Append(wal.TypeDelta, rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.dur.log.SyncTo(lsn); err != nil {
		t.Fatal(err)
	}
	prog, _ := LoadProgramString(mln.Figure1Program)
	ev, _ := LoadEvidenceString(prog, mln.Figure1Evidence)
	if _, err := Open(prog, ev, EngineConfig{DataDir: dir}); !errors.Is(err, codec.ErrMalformed) || !strings.Contains(err.Error(), "decoding WAL delta") {
		t.Fatalf("reopen over a malformed delta record: err = %v, want a corrupt-record error", err)
	}
}

// sealSnapshot frames a snapshot body as writeSealed does, in memory.
func sealSnapshot(body []byte) []byte {
	var w codec.Enc
	w.Raw([]byte(snapshotMagic))
	w.Raw(body)
	w.U32(crc32.Checksum(w.Buf(), snapCRCTable))
	return w.Buf()
}

// A snapshot whose raws are defective past the checksum — one clause with
// two raw weights, or a raw claiming more literals than the file holds —
// fails the open with codec.ErrMalformed, without sizing anything by the
// claimed count.
func TestSnapshotRawDefectsFailTyped(t *testing.T) {
	dir := t.TempDir()
	eng := figure1Engine(t, EngineConfig{DataDir: dir})
	if err := eng.Ground(context.Background()); err != nil {
		t.Fatal(err)
	}
	sets, _ := eng.inc.Raws()
	path := filepath.Join(dir, snapshotFile)
	good := mustRead(t, path)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	// Locate the first clause with two raws by its own encoding.
	at, firstLen := -1, 0
	for _, s := range sets {
		var w codec.Enc
		s.Encode(&w)
		if enc := w.Buf(); binary.LittleEndian.Uint32(enc) >= 2 {
			at = bytes.Index(good, enc)
			firstLen = int(binary.LittleEndian.Uint32(enc[12:]))
			break
		}
	}
	if at < 0 {
		t.Fatal("no clause with two raws in the Figure-1 snapshot")
	}
	tamper := func(off int, with ...byte) []byte {
		body := append([]byte(nil), good[len(snapshotMagic):len(good)-4]...)
		copy(body[at-len(snapshotMagic)+off:], with)
		return sealSnapshot(body)
	}
	secondWeight := 4 + 12 + 8*firstLen
	cases := []struct {
		name, want string
		raw        []byte
	}{
		{"two weights in one clause", "has weight", tamper(secondWeight, good[at+secondWeight]^1)},
		{"raw longer than the file", "overruns", tamper(4+8, 0xFF, 0xFF, 0xFF, 0x7F)},
	}
	for _, tc := range cases {
		raw := tc.raw
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := decodeSnapshot(raw, eng.prog)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, codec.ErrMalformed) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("decode: err = %v, want codec.ErrMalformed about %q", err, tc.want)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Fatalf("decoding a %d-byte snapshot allocated %d bytes", len(raw), grew)
			}
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			prog, _ := LoadProgramString(mln.Figure1Program)
			ev, _ := LoadEvidenceString(prog, mln.Figure1Evidence)
			if _, err := Open(prog, ev, EngineConfig{DataDir: dir}); !errors.Is(err, codec.ErrMalformed) {
				t.Fatalf("Open: err = %v, want codec.ErrMalformed", err)
			}
		})
	}
}

// FuzzReadSnapshot: arbitrary bytes behind the right magic and a VALID
// checksum either fail typed or decode to a snapshot whose network can be
// folded — never a panic, never an allocation the input's size does not
// bound. The version-2 seed (the older build's data directory) fuzzes the
// path that reads past that version's network section.
func FuzzReadSnapshot(f *testing.F) {
	prog, err := LoadProgramString(mln.Figure1Program)
	if err != nil {
		f.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join(formatDir, snapshotFile))
	if err != nil {
		f.Fatal(err)
	}
	body := golden[len(snapshotMagic) : len(golden)-4]
	f.Add(body)
	f.Add(body[:len(body)/2])
	f.Add(body[:53]) // the fixed header, nothing after it
	f.Add([]byte{})
	f.Add(repeatSnapAtom(f, prog, golden))
	v2, err := os.ReadFile(filepath.Join(fixtureDir, fixtureFiles[0]))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v2[len(snapshotMagic) : len(v2)-4])

	f.Fuzz(func(t *testing.T, body []byte) {
		snap, err := decodeSnapshot(sealSnapshot(body), prog)
		if err != nil {
			if !errors.Is(err, codec.ErrMalformed) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		// A registry RestoreTables accepts gives every atom exactly its
		// own aid; one naming an atom twice is refused.
		ts, err := grounding.RestoreTables(db.Open(db.Config{BufferPoolPages: 64}), prog, mln.NewEvidence(prog), snap.atoms)
		if err != nil {
			return
		}
		for i, sa := range snap.atoms {
			if aid, ok := ts.AidOf(prog.Preds[sa.Pred], sa.Args); !ok || aid != int64(i+1) {
				t.Fatalf("registry atom %d restored under aid %d (%v)", i+1, aid, ok)
			}
		}
		_, _, _ = grounding.RestoreIncremental(ts, grounding.Options{}, snap.raws, snap.perStats) // may refuse, must not panic
	})
}

// snapAtomSpans returns a copy of the golden snapshot's body with the
// registry atoms decoded and each one's [start, end) byte span in the body.
func snapAtomSpans(tb testing.TB, prog *mln.Program, golden []byte) (body []byte, atoms []grounding.SnapAtom, spans [][2]int) {
	tb.Helper()
	snap, err := decodeSnapshot(golden, prog)
	if err != nil {
		tb.Fatal(err)
	}
	var section codec.Enc
	section.U32(uint32(len(snap.atoms)))
	var ends []int
	for _, a := range snap.atoms {
		section.U32(uint32(a.Pred))
		for _, x := range a.Args {
			section.U32(uint32(x))
		}
		section.U8(byte(a.Truth))
		ends = append(ends, len(section.Buf()))
	}
	body = slices.Clone(golden[len(snapshotMagic) : len(golden)-4])
	at := bytes.Index(body, section.Buf())
	if at < 0 {
		tb.Fatal("atom registry not found in the golden snapshot")
	}
	start := at + 4
	for _, end := range ends {
		spans = append(spans, [2]int{start, at + end})
		start = at + end
	}
	return body, snap.atoms, spans
}

// repeatSnapAtom returns the golden snapshot's body with its registry
// naming one atom twice: the second of two same-predicate atoms in a row is
// overwritten with the first.
func repeatSnapAtom(tb testing.TB, prog *mln.Program, golden []byte) []byte {
	body, atoms, spans := snapAtomSpans(tb, prog, golden)
	for i := 0; i+1 < len(atoms); i++ {
		if atoms[i+1].Pred == atoms[i].Pred {
			copy(body[spans[i+1][0]:], body[spans[i][0]:spans[i][1]])
			return body
		}
	}
	tb.Fatal("no two same-predicate atoms in a row in the golden snapshot")
	return nil
}

// A snapshot registry past the checksum that names one atom twice decodes,
// but RestoreTables refuses it; one whose atom carries a truth byte that is
// no truth code fails the decode with codec.ErrMalformed.
func TestSnapshotRegistryDefects(t *testing.T) {
	prog, err := LoadProgramString(mln.Figure1Program)
	if err != nil {
		t.Fatal(err)
	}
	golden := mustRead(t, filepath.Join(formatDir, snapshotFile))

	snap, err := decodeSnapshot(sealSnapshot(repeatSnapAtom(t, prog, golden)), prog)
	if err != nil {
		t.Fatalf("decode of a repeated atom: %v", err)
	}
	if _, err := grounding.RestoreTables(db.Open(db.Config{}), prog, mln.NewEvidence(prog), snap.atoms); err == nil ||
		!strings.Contains(err.Error(), "twice") {
		t.Fatalf("RestoreTables of a repeated atom: err = %v", err)
	}

	body, _, spans := snapAtomSpans(t, prog, golden)
	body[spans[0][1]-1] = 200
	if _, err := decodeSnapshot(sealSnapshot(body), prog); !errors.Is(err, codec.ErrMalformed) ||
		!strings.Contains(err.Error(), "truth code 200") {
		t.Fatalf("decode of truth byte 200: err = %v, want codec.ErrMalformed", err)
	}
}

// In-database search (Tuffy-mm) on a durable engine: its per-query side
// tables are created and dropped over page files, the one path on which
// the engine truncates a FileDisk file. Repeated queries leave the catalog
// and the live page count flat, and a closed and reopened engine answers
// bit-identically.
func TestDurableInDatabaseSearch(t *testing.T) {
	ds := rcSmall()
	dir := t.TempDir()
	// A budget short of the optimum keeps the answer's cost nonzero, so the
	// bit-identity checks compare a state search actually chose.
	opts := InferOptions{Mode: InDatabase, MaxFlips: 150, Seed: 9}
	footprint := func(eng *Engine) (tables int, pages int32, bytes int64) {
		d := eng.DB()
		for _, name := range d.TableNames() {
			tab, _ := d.Table(name)
			pages += d.Disk().NumPages(tab.Heap().FileID())
		}
		segs, err := os.ReadDir(filepath.Join(dir, pagesDir))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range segs {
			info, err := s.Info()
			if err != nil {
				t.Fatal(err)
			}
			bytes += info.Size()
		}
		return len(d.TableNames()), pages, bytes
	}
	eng, err := Open(ds.Prog, ds.Ev.Clone(), EngineConfig{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var first *MAPResult
	var tables0 int
	var pages0 int32
	var bytes1 int64
	for i := 0; i < 3; i++ {
		res, err := eng.InferMAP(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		tables, pages, bytes := footprint(eng)
		switch i {
		case 0:
			if !(res.Cost > 0) || math.IsInf(res.Cost, 0) {
				t.Fatalf("cost %v: the instance must leave a finite nonzero cost", res.Cost)
			}
			first, tables0, pages0 = res, tables, pages
			continue
		case 1:
			// A dropped file id can come back to a side table of another
			// size once; from then on the segments stay at their high-water
			// mark.
			bytes1 = bytes
		default:
			if bytes != bytes1 {
				t.Fatalf("query %d: page files grew from %d to %d bytes", i, bytes1, bytes)
			}
		}
		if res.Cost != first.Cost || res.Flips != first.Flips || !sameStates(res.State, first.State) {
			t.Fatalf("query %d: cost %v flips %d differs from the first query's %v / %d", i, res.Cost, res.Flips, first.Cost, first.Flips)
		}
		if tables != tables0 || pages != pages0 {
			t.Fatalf("query %d: %d tables, %d live pages; after the first query %d, %d", i, tables, pages, tables0, pages0)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	warm, err := Open(ds.Prog, ds.Ev.Clone(), EngineConfig{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	res, err := warm.InferMAP(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(res.Cost) != math.Float64bits(first.Cost) || res.Flips != first.Flips || !sameStates(res.State, first.State) {
		t.Fatalf("reopened: cost %v flips %d; before Close %v / %d", res.Cost, res.Flips, first.Cost, first.Flips)
	}
}
