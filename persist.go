package tuffy

// This file is the Engine's durability layer, active when
// EngineConfig.DataDir is set. It has one durable tier, a logical one:
// after the first Ground, and at every checkpoint, the engine persists a
// snapshot of the grounding's inputs and outputs — the merged evidence, the
// atom registry in aid order, the per-clause raw groundings and their stats
// — plus fingerprints of the program and the base evidence it was built
// from. The assembled network is not in it: it is a pure function of the
// raws, so a warm open folds it again with the same fold a cold Ground uses.
// Every committed UpdateEvidence appends a TypeDelta WAL record and fsyncs
// it before the new epoch is published, so reopening the DataDir restores
// the snapshot and replays the deltas committed after it — landing,
// bit-identically, on the exact epoch a never-crashed engine would serve.
//
// The embedded database runs over a FileDisk in DataDir/pages, which is
// scratch space that lets tables spill beyond the buffer pool, not state:
// it opens empty, and recovery rebuilds the predicate tables logically
// from the snapshot registry (RestoreTables re-stages atoms in aid order,
// reproducing the identical aid space).
//
// Commit ordering for one UpdateEvidence: apply the delta to the evidence
// and predicate tables, append + fsync the TypeDelta record (the commit
// point), then re-ground and publish. A failure before the fsync rolls the
// tables back and returns a clean, retryable error; a failure after it
// (canceled re-ground) rolls back and scrubs the WAL with a checkpoint of
// the restored state, so disk and memory agree again. A crash anywhere
// leaves the DataDir at exactly the pre- or post-operation epoch.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"tuffy/internal/codec"
	"tuffy/internal/db"
	"tuffy/internal/db/storage"
	"tuffy/internal/grounding"
	"tuffy/internal/mln"
	"tuffy/internal/wal"
)

const (
	snapshotMagic   = "TFYSNAP1"
	snapshotVersion = 3
	snapshotFile    = "snapshot.tfy"
	walFile         = "wal.log"
	pagesDir        = "pages"

	// checkpointEvery is the automatic checkpoint cadence: after this many
	// committed evidence updates the grounded state is re-snapshotted and
	// the WAL truncated, which bounds recovery replay.
	checkpointEvery = 16
)

// errFrozen is returned by every durable operation after an injected fault
// fired: the test hook simulates a crash, so nothing may touch the disk
// afterwards (the "dead" process can only be examined by reopening the
// DataDir).
var errFrozen = errors.New("tuffy: durable state frozen by injected fault")

// durability is the engine's durable-storage state (nil without a DataDir).
// All mutable fields are guarded by Engine.groundMu except the atomics,
// which DurabilityStats reads concurrently.
type durability struct {
	dir   string
	fdisk *storage.FileDisk
	log   *wal.Log

	progFP   uint64
	baseEvFP uint64
	predIdx  map[*mln.Predicate]int32

	every int  // checkpoint cadence in committed updates (checkpointEvery)
	since int  // committed updates since the last checkpoint
	dirty bool // committed state the snapshot does not cover yet

	// fault is the crash-injection seam for the engine crash-matrix tests:
	// non-nil, it is consulted at every named commit/checkpoint step, and a
	// returned error freezes the layer (see errFrozen).
	fault func(point string) error
	dead  bool

	warm         bool
	recoveryTime time.Duration
	replayed     int

	checkpoints   atomic.Int64
	ckptFailures  atomic.Int64
	snapshotBytes atomic.Int64
	lastCkptErr   error
}

// at runs the named fault point. Once any point fired, every later durable
// operation fails, freezing the on-disk state exactly as a crash would.
func (d *durability) at(point string) error {
	if d.dead {
		return errFrozen
	}
	if d.fault != nil {
		if err := d.fault(point); err != nil {
			d.dead = true
			return err
		}
	}
	return nil
}

// commitDelta makes one evidence delta durable: append the TypeDelta frame
// and fsync it (group commit). This is the update's commit point — it runs
// after the delta is applied to the tables but before any re-grounding, so
// a crash on either side leaves a state recovery reproduces exactly.
func (d *durability) commitDelta(delta mln.Delta) error {
	if err := d.at("delta.append"); err != nil {
		return err
	}
	lsn, err := d.log.Append(wal.TypeDelta, mln.EncodeDelta(d.predIdx, delta))
	if err != nil {
		return err
	}
	if err := d.at("delta.sync"); err != nil {
		return err
	}
	return d.log.SyncTo(lsn)
}

// DurabilityStats reports the durable-storage layer's counters; Enabled is
// false (and everything else zero) for an engine without a DataDir.
type DurabilityStats struct {
	Enabled bool
	// WarmStart is true when Open restored a snapshot instead of requiring
	// a fresh Ground; RecoveryTime is the wall clock Open spent on
	// restore + delta replay (or just opening the files when cold).
	WarmStart    bool
	RecoveryTime time.Duration
	// ReplayedDeltas counts evidence deltas re-applied from the WAL.
	ReplayedDeltas int

	Checkpoints        int64
	CheckpointFailures int64
	SnapshotBytes      int64 // size of the last snapshot written or restored

	WALSizeBytes     int64 // current log size incl. buffered frames
	WALAppendedBytes int64 // lifetime appended bytes (monotone across resets)
	WALSyncs         int64 // fsync batches (group commits)
}

// DurabilityStats snapshots the durability layer's counters.
func (e *Engine) DurabilityStats() DurabilityStats {
	d := e.dur
	if d == nil {
		return DurabilityStats{}
	}
	return DurabilityStats{
		Enabled:            true,
		WarmStart:          d.warm,
		RecoveryTime:       d.recoveryTime,
		ReplayedDeltas:     d.replayed,
		Checkpoints:        d.checkpoints.Load(),
		CheckpointFailures: d.ckptFailures.Load(),
		SnapshotBytes:      d.snapshotBytes.Load(),
		WALSizeBytes:       d.log.Size(),
		WALAppendedBytes:   d.log.AppendedBytes(),
		WALSyncs:           d.log.Syncs(),
	}
}

// openDurable wires the durable tier under a fresh Engine and, when the
// DataDir holds a matching snapshot, restores it and replays the WAL so the
// Engine comes up serving-ready at the exact pre-crash epoch.
func (e *Engine) openDurable() error {
	start := time.Now()
	dir := e.cfg.DataDir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	fdisk, err := storage.OpenFileDisk(filepath.Join(dir, pagesDir))
	if err != nil {
		return err
	}
	log, recs, err := wal.Open(filepath.Join(dir, walFile))
	if err != nil {
		fdisk.Close()
		return err
	}
	fail := func(err error) error {
		log.Close()
		fdisk.Close()
		e.dur = nil
		return err
	}

	d := &durability{
		dir:      dir,
		fdisk:    fdisk,
		log:      log,
		every:    checkpointEvery,
		progFP:   fingerprintProgram(e.prog, e.cfg),
		baseEvFP: fingerprintEvidence(e.prog, e.ev),
		predIdx:  mln.PredIndex(e.prog),
	}
	dcfg := e.cfg.DB
	if dcfg.Disk == nil {
		dcfg.Disk = fdisk
	}
	e.db = db.Open(dcfg)
	e.dur = d

	snap, err := readSnapshot(filepath.Join(dir, snapshotFile), e.prog)
	if err != nil {
		return fail(fmt.Errorf("tuffy: reading snapshot in %s: %w", dir, err))
	}
	if snap == nil {
		// Cold: Ground will write the first snapshot.
		d.recoveryTime = time.Since(start)
		return nil
	}
	if snap.progFP != d.progFP {
		return fail(fmt.Errorf("tuffy: DataDir %s holds state for a different program or engine config; use a fresh directory", dir))
	}
	if snap.baseEvFP != d.baseEvFP {
		return fail(fmt.Errorf("tuffy: DataDir %s holds state for different base evidence; use a fresh directory", dir))
	}

	// Merged evidence: the base evidence plus every committed delta up to
	// the checkpoint. The caller's prog already carries the typed domains
	// (its own evidence parse populated them — verified by the fingerprint).
	ev := mln.NewEvidence(e.prog)
	for pi, rows := range snap.evidence {
		pred := e.prog.Preds[pi]
		for _, row := range rows {
			ev.Upsert(pred, row.args, row.truth)
		}
	}
	e.ev = ev

	// Deltas committed after the snapshot pick the recovery path: decode
	// them up front so a damaged WAL record fails the open before anything
	// is published. A crash between the snapshot rename and the WAL reset
	// leaves older frames behind; the stored walLSN filters them out.
	var replays []mln.Delta
	for _, r := range recs {
		if r.Type != wal.TypeDelta || r.LSN <= snap.walLSN {
			continue
		}
		delta, err := mln.DecodeDelta(e.prog, r.Payload)
		if err != nil {
			return fail(fmt.Errorf("tuffy: decoding WAL delta at LSN %d: %w", r.LSN, err))
		}
		replays = append(replays, delta)
	}

	// Rebuild the predicate tables and the incremental grounder, publish the
	// snapshot's epoch, then re-apply the committed deltas in order. Replay
	// repeats the exact committed sequence, so epochs and answers land where
	// the crashed process left them.
	ts, err := grounding.RestoreTables(e.db, e.prog, ev, snap.atoms)
	if err != nil {
		return fail(fmt.Errorf("tuffy: restoring predicate tables: %w", err))
	}
	opts := grounding.Options{UseClosure: e.cfg.UseClosure, Workers: e.cfg.GroundWorkers}
	inc, res, err := grounding.RestoreIncremental(ts, opts, snap.raws, snap.perStats)
	if err != nil {
		ts.Drop()
		return fail(fmt.Errorf("tuffy: restoring grounded network: %w", err))
	}
	e.tables, e.inc = ts, inc
	e.publishRecovered(snap, res)

	for i, delta := range replays {
		if _, err := e.applyUpdate(context.Background(), delta, false); err != nil {
			return fail(fmt.Errorf("tuffy: replaying WAL delta %d of %d: %w", i+1, len(replays), err))
		}
		d.replayed++
	}
	if len(replays) > 0 {
		// Collapse the replay into a fresh checkpoint so the next open
		// restores directly instead of replaying again.
		if err := e.checkpointLocked(); err != nil {
			return fail(fmt.Errorf("tuffy: checkpoint after replay: %w", err))
		}
	}
	d.recoveryTime = time.Since(start)
	return nil
}

// publishRecovered installs the recovered epoch and the engine state a
// never-crashed instance would carry alongside it.
func (e *Engine) publishRecovered(snap *engineSnap, res *grounding.Result) {
	ep := &epoch{gen: snap.gen, res: res, db: e.db}
	ep.refs.Store(1)
	// Re-derive the decomposition if the snapshotted epoch had built it: a
	// deterministic pure function of the MRF, so the warm epoch serves it
	// bit-identically without first-query latency.
	if snap.decomposed {
		ep.decomposition(e.partitionBeta())
	}
	e.cur.Store(ep)
	e.groundTime = snap.groundTime
	e.updatesApplied.Store(snap.updates)
	e.dur.warm = true
	e.dur.snapshotBytes.Store(snap.size)
}

// Checkpoint forces a durable checkpoint: write a fresh snapshot of the
// grounded state and truncate the WAL. It returns an error for an engine
// without a DataDir. Checkpoints also run automatically after Ground, every
// checkpointEvery committed updates, and on Close.
func (e *Engine) Checkpoint() error {
	e.groundMu.Lock()
	defer e.groundMu.Unlock()
	if e.dur == nil {
		return fmt.Errorf("tuffy: Checkpoint requires EngineConfig.DataDir")
	}
	if e.broken != nil {
		return fmt.Errorf("tuffy: engine is broken for updates: %w", e.broken)
	}
	return e.checkpointLocked()
}

// checkpointLocked persists the grounded state (groundMu held). Ground
// calls it before publishing epoch 0, so no current epoch means generation
// 0 without a decomposition. A failure part-way through never loses
// committed state: the previous snapshot plus the un-truncated WAL still
// reproduce the current epoch.
func (e *Engine) checkpointLocked() error {
	d := e.dur
	if e.inc == nil {
		// Nothing restorable to persist: not grounded yet, or the top-down
		// grounder (no incremental cache to snapshot).
		return nil
	}
	gen := uint64(0)
	var decomposed bool
	if ep := e.cur.Load(); ep != nil {
		gen, decomposed = ep.gen, ep.decomposed() != nil
	}
	// The log is synced, then the snapshot atomically swapped in, and only
	// then the log truncated. A crash between any two steps recovers from
	// the previous snapshot plus the log. The first fault point comes
	// before the sync: a frozen layer must not write a buffered frame.
	if err := d.at("ckpt.snapshot"); err != nil {
		return err
	}
	if err := d.log.Sync(); err != nil {
		return err
	}
	if err := e.writeSnapshot(gen, decomposed); err != nil {
		return err
	}
	if err := d.at("ckpt.reset"); err != nil {
		return err
	}
	if err := d.log.Reset(); err != nil {
		return err
	}
	d.checkpoints.Add(1)
	d.since = 0
	d.dirty = false
	return nil
}

// scrubWAL reconciles disk with memory after an update failed past its WAL
// append (sync error, canceled re-ground): the tables were rolled back, so
// a checkpoint of the restored state truncates the orphaned delta frame
// away. If the scrub itself fails, restart-state and live-state could
// disagree, so the caller latches the engine broken.
func (e *Engine) scrubWAL() error {
	return e.checkpointLocked()
}

// noteCommitted records one committed update and runs the cadence
// checkpoint. Cadence failures are recorded, not returned: the update is
// already durable in the WAL, so a failed checkpoint only defers
// compaction — recovery replays the longer log to the same state.
func (e *Engine) noteCommitted() {
	d := e.dur
	d.dirty = true
	d.since++
	if d.since >= d.every {
		if err := e.checkpointLocked(); err != nil {
			d.ckptFailures.Add(1)
			d.lastCkptErr = err
		}
	}
}

// Close checkpoints any state the snapshot does not cover yet and releases
// the durable files. It is a no-op for an engine without a DataDir. The
// engine must be quiescent (no in-flight queries or updates).
func (e *Engine) Close() error {
	e.groundMu.Lock()
	defer e.groundMu.Unlock()
	d := e.dur
	if d == nil {
		return nil
	}
	var first error
	if d.dirty && e.broken == nil && !d.dead {
		if err := e.checkpointLocked(); err != nil {
			first = err
		}
	}
	if err := d.log.Close(); err != nil && first == nil {
		first = err
	}
	if err := d.fdisk.Close(); err != nil && first == nil {
		first = err
	}
	e.dur = nil
	return first
}

// ---- snapshot encoding ----

// engineSnap is a decoded snapshot file.
type engineSnap struct {
	progFP, baseEvFP     uint64
	gen, updates, walLSN uint64
	groundTime           time.Duration
	decomposed           bool
	evidence             [][]evRow
	atoms                []grounding.SnapAtom
	raws                 []grounding.RawSet
	perStats             []grounding.Stats
	size                 int64
}

type evRow struct {
	args  []int32
	truth mln.Truth
}

// writeSnapshot serializes the grounded state and swaps it in atomically
// (tmp + fsync + rename + dir fsync), so a crash mid-write leaves the
// previous snapshot intact.
func (e *Engine) writeSnapshot(gen uint64, decomposed bool) error {
	d := e.dur
	atoms, err := e.tables.ExportAtoms()
	if err != nil {
		return err
	}
	raws, perStats := e.inc.Raws()

	var w codec.Enc
	w.Raw([]byte(snapshotMagic))
	w.U32(snapshotVersion)
	w.U64(d.progFP)
	w.U64(d.baseEvFP)
	w.U64(gen)
	w.U64(e.updatesApplied.Load())
	// Everything with an LSN at or below this is inside the snapshot;
	// replay after a crash skips those frames.
	w.U64(d.log.NextLSN() - 1)
	w.U64(uint64(e.groundTime))
	var flags byte
	if decomposed {
		flags |= 1
	}
	w.U8(flags)

	w.U32(uint32(len(e.prog.Preds)))
	for _, pred := range e.prog.Preds {
		w.U32(uint32(e.ev.Count(pred)))
		e.ev.ForEach(pred, func(args []int32, t mln.Truth) {
			for _, a := range args {
				w.U32(uint32(a))
			}
			w.U8(byte(t))
		})
	}

	w.U32(uint32(len(atoms)))
	for _, a := range atoms {
		w.U32(uint32(a.Pred))
		for _, arg := range a.Args {
			w.U32(uint32(arg))
		}
		w.U8(byte(a.Truth))
	}

	w.U32(uint32(len(raws)))
	for _, rs := range raws {
		rs.Encode(&w)
	}
	for _, st := range perStats {
		writeStats(&w, st)
	}

	if err := writeSealed(d.dir, snapshotFile, &w, func() error { return d.at("ckpt.rename") }); err != nil {
		return err
	}
	d.snapshotBytes.Store(int64(len(w.Buf())))
	return nil
}

// readSnapshot loads and validates the snapshot (nil, nil when none
// exists). Any framing, CRC or bounds violation is an error: a snapshot is
// swapped in atomically, so damage means something outside the engine
// touched it, and silently cold-starting would drop acknowledged updates.
func readSnapshot(path string, prog *mln.Program) (*engineSnap, error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return decodeSnapshot(raw, prog)
}

// decodeSnapshot decodes the bytes of a snapshot file.
func decodeSnapshot(raw []byte, prog *mln.Program) (*engineSnap, error) {
	r, err := openSealed(raw, snapshotMagic)
	if err != nil {
		return nil, err
	}
	v := r.U32()
	if v != 2 && v != snapshotVersion {
		r.Failf("snapshot version %d, want 2 or %d", v, snapshotVersion)
	}
	s := &engineSnap{size: int64(len(raw))}
	s.progFP = r.U64()
	s.baseEvFP = r.U64()
	s.gen = r.U64()
	s.updates = r.U64()
	s.walLSN = r.U64()
	s.groundTime = time.Duration(r.U64())
	// Bit 1: the epoch had built its decomposition. Bit 2 is what a
	// snapshot from before the one-decomposition design set for its second
	// component list; it also means "pre-build the decomposition".
	s.decomposed = r.U8()&3 != 0

	// Every count below is checked against the bytes left (Count) before
	// anything is sized by it, and a violated invariant latches the
	// decoder's error: reads after it return zeros and loops end, so the
	// one check at the bottom reports the first defect.
	if n := int(r.U32()); n != len(prog.Preds) {
		r.Failf("snapshot has %d predicates, program has %d", n, len(prog.Preds))
	}
	s.evidence = make([][]evRow, len(prog.Preds))
	for pi, pred := range prog.Preds {
		rows := make([]evRow, r.Count(4*pred.Arity()+1))
		for i := range rows {
			rows[i].args = readArgs(r, pred)
			rows[i].truth = mln.Truth(r.U8())
		}
		s.evidence[pi] = rows
	}

	s.atoms = make([]grounding.SnapAtom, r.Count(5))
	for i := range s.atoms {
		pi := int32(r.U32())
		if pi < 0 || int(pi) >= len(prog.Preds) {
			r.Failf("snapshot atom %d references predicate %d of %d", i, pi, len(prog.Preds))
			break
		}
		s.atoms[i] = grounding.SnapAtom{Pred: pi, Args: readArgs(r, prog.Preds[pi]), Truth: int64(r.U8())}
		if t := s.atoms[i].Truth; t != grounding.TruthUnknown && t != grounding.TruthTrue && t != grounding.TruthFalse {
			r.Failf("snapshot atom %d has truth code %d", i, t)
		}
	}

	if n := int(r.U32()); n != len(prog.Clauses) {
		r.Failf("snapshot has %d clause raw sets, program has %d clauses", n, len(prog.Clauses))
	}
	s.raws = make([]grounding.RawSet, len(prog.Clauses))
	for i := range s.raws {
		s.raws[i] = grounding.DecodeRawSet(r)
	}
	s.perStats = make([]grounding.Stats, len(prog.Clauses))
	for i := range s.perStats {
		s.perStats[i] = readStats(r)
	}

	if v == 2 {
		// Version 2 went on with the assembled network: the registry aid of
		// each atom, the fixed cost, the clauses and the result stats. It is
		// a function of the raws, so it is read past, every count bounded
		// like the rest, and folded again from them.
		r.Raw(8 * r.Count(8))
		r.F64()
		for n := r.Count(12); n > 0; n-- {
			r.F64()
			r.Raw(4 * r.Count(4))
		}
		r.Raw(7 * 8)
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return s, nil
}

// readArgs reads one tuple of pred's arity.
func readArgs(r *codec.Dec, pred *mln.Predicate) []int32 {
	args := make([]int32, pred.Arity())
	for j := range args {
		args[j] = int32(r.U32())
	}
	return args
}

func writeStats(w *codec.Enc, st grounding.Stats) {
	w.U64(uint64(st.NumAtoms))
	w.U64(uint64(st.NumUsedAtoms))
	w.U64(uint64(st.NumGroundedRaw))
	w.U64(uint64(st.NumClauses))
	w.U64(uint64(st.FixedCostCount))
	w.U64(uint64(st.JoinRowsVisited))
	w.U64(uint64(st.PeakBytes))
}

func readStats(r *codec.Dec) grounding.Stats {
	return grounding.Stats{
		NumAtoms:        int(r.U64()),
		NumUsedAtoms:    int(r.U64()),
		NumGroundedRaw:  int(r.U64()),
		NumClauses:      int(r.U64()),
		FixedCostCount:  int(r.U64()),
		JoinRowsVisited: int64(r.U64()),
		PeakBytes:       int64(r.U64()),
	}
}

// ---- fingerprints ----

// fingerprintProgram hashes the parts of the program (and the engine
// configuration knobs) that determine the grounded state, so a DataDir is
// only ever restored under the semantics it was written under. Predicate
// and clause text pin the interned-symbol meaning of the stored int32s.
func fingerprintProgram(prog *mln.Program, cfg EngineConfig) uint64 {
	h := fnv.New64a()
	ws := func(s string) {
		io.WriteString(h, s)
		h.Write([]byte{0})
	}
	wu := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	wu(uint64(cfg.Grounder))
	if cfg.UseClosure {
		wu(1)
	} else {
		wu(0)
	}
	wu(uint64(len(prog.Preds)))
	for _, p := range prog.Preds {
		ws(p.Name)
		for _, a := range p.Args {
			ws(a)
		}
		if p.Closed {
			wu(1)
		} else {
			wu(0)
		}
	}
	wu(uint64(len(prog.Clauses)))
	for _, c := range prog.Clauses {
		wu(math.Float64bits(c.Weight))
		ws(c.Source)
		wu(uint64(len(c.Lits)))
		for _, l := range c.Lits {
			if l.Pred != nil {
				ws(l.Pred.Name)
			} else {
				ws("=")
			}
			if l.Negated {
				wu(1)
			} else {
				wu(0)
			}
			wu(uint64(len(l.Args)))
			for _, t := range l.Args {
				if t.IsVar {
					ws("v" + t.Var)
				} else {
					wu(uint64(uint32(t.Const)))
				}
			}
		}
		for _, v := range c.Exist {
			ws(v)
		}
	}
	return h.Sum64()
}

// fingerprintEvidence hashes the base evidence and the typed domains it
// populated — including the constants' names, which pins the symbol-table
// interning the stored int32 ids depend on.
func fingerprintEvidence(prog *mln.Program, ev *mln.Evidence) uint64 {
	h := fnv.New64a()
	wu := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for i, pred := range prog.Preds {
		wu(uint64(i))
		wu(uint64(ev.Count(pred)))
		ev.ForEach(pred, func(args []int32, t mln.Truth) {
			for _, a := range args {
				wu(uint64(uint32(a)))
			}
			h.Write([]byte{byte(t)})
		})
	}
	for _, pred := range prog.Preds {
		for _, typ := range pred.Args {
			dom := prog.Domains[typ]
			if dom == nil {
				wu(0)
				continue
			}
			wu(uint64(len(dom.Consts)))
			for _, c := range dom.Consts {
				io.WriteString(h, prog.Syms.Name(c))
				h.Write([]byte{0})
			}
		}
	}
	return h.Sum64()
}

// ---- durable file helpers ----

var snapCRCTable = crc32.MakeTable(crc32.Castagnoli)

// writeSealed durably replaces dir/name with the encoded body plus its
// CRC-32C tail: tmp file + fsync + rename + directory fsync, so a crash
// mid-write leaves the previous file intact. beforeRename (may be nil) is
// the checkpoint path's fault-injection point.
func writeSealed(dir, name string, w *codec.Enc, beforeRename func() error) error {
	w.U32(crc32.Checksum(w.Buf(), snapCRCTable))
	path := filepath.Join(dir, name)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, w.Buf(), 0o644); err != nil {
		return err
	}
	if err := fsyncFile(tmp); err != nil {
		os.Remove(tmp)
		return err
	}
	if beforeRename != nil {
		if err := beforeRename(); err != nil {
			return err
		}
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// openSealed validates a writeSealed file's magic and CRC-32C tail and
// returns a decoder over the body, positioned after the magic.
func openSealed(raw []byte, magic string) (*codec.Dec, error) {
	if len(raw) < len(magic)+4 || string(raw[:len(magic)]) != magic {
		return nil, fmt.Errorf("bad magic (want %s)", magic)
	}
	body, tail := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.Checksum(body, snapCRCTable) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("checksum mismatch")
	}
	d := codec.NewDec(body)
	d.Raw(len(magic))
	return d, nil
}

func fsyncFile(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
