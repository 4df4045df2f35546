package tuffy

// Engine-level durability tests: warm-start bit-identity, the crash matrix
// over every injected fault point in the commit/checkpoint path, torn-WAL-
// tail recovery, and result-cache persistence through the serving layer.
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
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"tuffy/internal/codec"
	"tuffy/internal/datagen"
	"tuffy/internal/mln"
	"tuffy/internal/wal"
	"tuffy/internal/wire"
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

// A closed engine's DataDir must warm-start: grounded state, epoch, update
// count, and both MAP and marginal answers bit-identical to the live
// engine before Close — without Ground ever running.
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
		t.Fatalf("clean reopen replayed %d deltas, want the fast path (0)", st.ReplayedDeltas)
	}
	if warm.Grounded() == nil {
		t.Fatal("warm engine is not serving-ready")
	}
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
	// This is what makes a clean reopen cheaper than the cold Ground it
	// replaces, on any host: opening and answering both query kinds built
	// no predicate table and no grounder.
	if warm.tables != nil || warm.inc != nil || warm.dur.pending == nil {
		t.Fatalf("clean reopen rebuilt grounding state before the first update (tables %v, grounder %v, pending %v)",
			warm.tables != nil, warm.inc != nil, warm.dur.pending != nil)
	}

	// The clean reopen deferred the table and grounder rebuild; the first
	// update pays for it. The materialized state must compose exactly: the
	// warm engine's post-update answers match a never-crashed engine that
	// applied the same two deltas.
	u2 := datagen.RandomDelta(ds, "hint", 8, 43)
	warmUR := mustUpdate(t, warm, u2)
	if warm.tables == nil || warm.inc == nil || warm.dur.pending != nil {
		t.Fatal("first update on a warm engine did not materialize the pending grounding state")
	}
	ref := groundedEngine(t, ds.Prog, ds.Ev.Clone(), EngineConfig{})
	mustUpdate(t, ref, datagen.RandomDelta(ds, "hint", 8, 42))
	refUR := mustUpdate(t, ref, u2)
	if warmUR.Epoch != refUR.Epoch {
		t.Fatalf("post-materialization epoch %d, want %d", warmUR.Epoch, refUR.Epoch)
	}
	requireSameMAP(t, "post-materialization MAP", mustMAP(t, warm, 7), mustMAP(t, ref, 7))
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
		{"ckpt.flush", true},
		{"ckpt.snapshot", true},
		{"ckpt.rename", true},
		{"ckpt.reset", true},
	}
	for _, tc := range points {
		t.Run(tc.point, func(t *testing.T) {
			dir := t.TempDir()
			eng := openDurableIE(t, ds, dir, EngineConfig{CheckpointEveryUpdates: 1})
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
// U2, the last synced frame in the log is deterministically U2's delta
// record (the commit precedes the re-ground, whose page images stay
// buffered), so corrupting the file's last byte tears exactly U2.
func TestTornWALTailRecoversPreUpdate(t *testing.T) {
	ds := ieSmall()
	dir := t.TempDir()
	eng := openDurableIE(t, ds, dir, EngineConfig{})
	if err := eng.Ground(context.Background()); err != nil {
		t.Fatal(err)
	}
	mustUpdate(t, eng, datagen.RandomDelta(ds, "hint", 6, 21))
	preMAP := mustMAP(t, eng, 7)
	preGen := eng.Generation()
	mustUpdate(t, eng, datagen.RandomDelta(ds, "hint", 6, 22))
	// Abandon the engine; then tear the last byte of the log.
	walPath := filepath.Join(dir, "wal.log")
	buf, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
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
	requireSameMAP(t, "post-torn-tail MAP", mustMAP(t, warm, 7), preMAP)
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

// The serving layer's result cache survives a restart: entries persisted
// at Close are reloaded by the next Serve over the warm-started engine,
// and an identical query is answered from cache, bit-identically.
func TestServerCacheSurvivesRestart(t *testing.T) {
	ctx := context.Background()
	ds := ieSmall()
	dir := t.TempDir()

	eng := openDurableIE(t, ds, dir, EngineConfig{DataDir: filepath.Join(dir, "replica0")})
	if err := eng.Ground(ctx); err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(ServerConfig{DataDir: dir}, eng)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Options: InferOptions{MaxFlips: 20_000, Seed: 7}}
	margReq := Request{Options: InferOptions{Samples: 60, Seed: 5}}
	want, err := srv.InferMAP(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	wantMarg, err := srv.InferMarginal(ctx, margReq)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	warm := openDurableIE(t, ds, dir, EngineConfig{DataDir: filepath.Join(dir, "replica0")})
	defer warm.Close()
	srv2, err := Serve(ServerConfig{DataDir: dir}, warm)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	got, err := srv2.InferMAP(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	gotMarg, err := srv2.InferMarginal(ctx, margReq)
	if err != nil {
		t.Fatal(err)
	}
	m := srv2.Metrics()
	if m.CacheHits != 2 || m.CacheMisses != 0 {
		t.Fatalf("restarted server: %d hits / %d misses, want both queries served from the reloaded cache", m.CacheHits, m.CacheMisses)
	}
	requireSameMAP(t, "cached MAP after restart", got, want)
	requireSameMarginal(t, "cached marginal after restart", gotMarg, wantMarg)
}

// A corrupt cache file must never poison a server: Serve starts with an
// empty cache and recomputes.
func TestCorruptCacheFileIgnored(t *testing.T) {
	ctx := context.Background()
	ds := ieSmall()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "cache.tfy"), []byte("TFYCACH1 garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	eng := groundedEngine(t, ds.Prog, ds.Ev.Clone(), EngineConfig{})
	srv, err := Serve(ServerConfig{DataDir: dir}, eng)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.InferMAP(ctx, Request{Options: InferOptions{MaxFlips: 5_000, Seed: 1}}); err != nil {
		t.Fatal(err)
	}
	if m := srv.Metrics(); m.CacheHits != 0 || m.CacheMisses != 1 {
		t.Fatalf("corrupt cache file: %d hits / %d misses, want a plain miss", m.CacheHits, m.CacheMisses)
	}
}

// A delta record whose truth byte is none of Unknown/True/False must fail
// the open as a corrupt record (and a worker must refuse the same bytes as
// a bad payload): applying it would store an evidence value the grounder
// does not know.
func TestMalformedDeltaRecordRejected(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	eng := figure1Engine(t, EngineConfig{DataDir: dir})
	if err := eng.Ground(ctx); err != nil {
		t.Fatal(err)
	}
	rec := mln.EncodeDelta(mln.PredIndex(eng.prog), figure1Delta(t, eng.prog))
	rec[8] = 3 // the first op's truth byte, after the op count and predicate index

	if _, err := eng.ApplyDelta(ctx, rec); !errors.Is(err, wire.ErrBadPayload) {
		t.Fatalf("ApplyDelta: err = %v, want wire.ErrBadPayload", err)
	}
	if eng.Generation() != 0 {
		t.Fatal("a refused delta moved the epoch")
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

// The first update of an engine builds what queries never needed — after a
// clean warm open the tables and grounder, and in every case the
// incremental assembler — and says so: Materialized is positive, inside
// UpdateTime, and zero from the second update on.
func TestUpdateMaterializedOnce(t *testing.T) {
	ds := ieSmall()
	dir := t.TempDir()
	check := func(t *testing.T, eng *Engine) {
		t.Helper()
		first := mustUpdate(t, eng, datagen.RandomDelta(ds, "hint", 6, 21))
		if first.Materialized <= 0 || first.Materialized > first.UpdateTime {
			t.Fatalf("first update: Materialized %v, UpdateTime %v", first.Materialized, first.UpdateTime)
		}
		if second := mustUpdate(t, eng, first.Inverse); second.Materialized != 0 {
			t.Fatalf("second update: Materialized %v", second.Materialized)
		}
	}
	t.Run("cold", func(t *testing.T) {
		eng := openDurableIE(t, ds, dir, EngineConfig{})
		defer eng.Close()
		if err := eng.Ground(context.Background()); err != nil {
			t.Fatal(err)
		}
		check(t, eng)
	})
	t.Run("warm", func(t *testing.T) {
		eng := openDurableIE(t, ds, dir, EngineConfig{})
		defer eng.Close()
		if st := eng.DurabilityStats(); !st.WarmStart || st.ReplayedDeltas != 0 {
			t.Fatalf("not a clean warm open: %+v", st)
		}
		check(t, eng)
	})
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
// rebuilt — never a panic, never an allocation the input's size does not
// bound.
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

	f.Fuzz(func(t *testing.T, body []byte) {
		snap, err := decodeSnapshot(sealSnapshot(body), prog)
		if err != nil {
			if !errors.Is(err, codec.ErrMalformed) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		_, _ = snap.buildResult(prog) // may refuse, must not panic
	})
}
