package wire

import (
	"errors"
	"fmt"

	"tuffy/internal/codec"
)

// finish closes a message decoder: any defect codec.Dec latched, or
// trailing garbage, is this package's typed payload error.
func finish(d *codec.Dec) error {
	if err := d.Finish(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	return nil
}

// fromOne drops the unused element 0 of a vector indexed by local atom id
// (1-based): the wire carries the n real entries only, and decoders put the
// gap back with codec's lead argument.
func fromOne[T any](v []T) []T {
	if len(v) == 0 {
		return nil
	}
	return v[1:]
}

// Hello is the handshake message both sides exchange before any request:
// the client sends its identity, the worker validates it against its own
// and answers with the same structure (TypeHelloAck). The fingerprints pin
// the inputs the grounded state is a pure function of: a worker that was
// started from a different program, base evidence or sharding-relevant
// config must never serve shards of this coordinator's queries.
type Hello struct {
	Version uint16
	// ProgFP / EvFP fingerprint the MLN program (plus grounder config) and
	// the base evidence, exactly as the durability layer fingerprints a
	// DataDir.
	ProgFP uint64
	EvFP   uint64
	// CfgFP fingerprints the config knobs that shape the component
	// decomposition and per-component option derivation (memory budget,
	// memo enablement) — the ones bit-identical sharding depends on beyond
	// the program itself.
	CfgFP uint64
	// Epoch is the sender's current engine generation, informational: epoch
	// agreement is enforced per request, not per connection.
	Epoch uint64
}

// Encode serializes the handshake.
func (h Hello) Encode() []byte {
	var e codec.Enc
	e.U16(h.Version)
	e.U64(h.ProgFP)
	e.U64(h.EvFP)
	e.U64(h.CfgFP)
	e.U64(h.Epoch)
	return e.Buf()
}

// DecodeHello parses a handshake payload.
func DecodeHello(payload []byte) (Hello, error) {
	d := codec.NewDec(payload)
	h := Hello{
		Version: d.U16(),
		ProgFP:  d.U64(),
		EvFP:    d.U64(),
		CfgFP:   d.U64(),
		Epoch:   d.U64(),
	}
	return h, finish(d)
}

// Check validates a peer's handshake against this side's identity,
// returning the typed mismatch error the session is rejected with.
func (h Hello) Check(peer Hello) error {
	if peer.Version != h.Version {
		return fmt.Errorf("%w: local %d, peer %d", ErrVersionMismatch, h.Version, peer.Version)
	}
	if peer.ProgFP != h.ProgFP || peer.EvFP != h.EvFP || peer.CfgFP != h.CfgFP {
		return fmt.Errorf("%w: local prog=%016x ev=%016x cfg=%016x, peer prog=%016x ev=%016x cfg=%016x",
			ErrIdentityMismatch, h.ProgFP, h.EvFP, h.CfgFP, peer.ProgFP, peer.EvFP, peer.CfgFP)
	}
	return nil
}

// ShardRequest asks a worker to run a group of independent components of
// one query — the unit the coordinator's sharder dispatches. The worker
// reconstructs the identical component decomposition from its own grounded
// epoch, so the request carries only the canonical per-query options, the
// epoch the answer must be computed on, and the component indices; the
// guard fields let the worker prove the decompositions agree before it
// runs anything.
type ShardRequest struct {
	// Marginal selects MC-SAT marginal sampling over the component list;
	// false runs MAP WalkSAT over the partition parts.
	Marginal bool
	// Epoch the shard must execute on; a worker on any other generation
	// answers with EpochMismatchError instead of a result.
	Epoch uint64
	// NumAtoms / NumComps guard the decomposition: the parent network's
	// atom count and the canonical component count the coordinator sharded
	// over. A disagreeing worker answers with PlanMismatchError.
	NumAtoms uint32
	NumComps uint32
	// Canonical query options (the same canonical form the result cache
	// keys): seed and budgets. Parallelism is absent by design — results
	// are identical for every worker count, locally and remotely.
	Seed     int64
	MaxFlips int64
	MaxTries uint32
	Samples  uint32
	// DeadlineMillis propagates the remaining per-query deadline (0 =
	// none); the worker enforces it with its own timer so a query never
	// outlives its budget just because it ran remotely.
	DeadlineMillis uint32
	// Indices are the canonical component indices to run, ascending.
	Indices []uint32
}

// Encode serializes the request.
func (r ShardRequest) Encode() []byte {
	var e codec.Enc
	e.Bool(r.Marginal)
	e.U64(r.Epoch)
	e.U32(r.NumAtoms)
	e.U32(r.NumComps)
	e.I64(r.Seed)
	e.I64(r.MaxFlips)
	e.U32(r.MaxTries)
	e.U32(r.Samples)
	e.U32(r.DeadlineMillis)
	e.U32(uint32(len(r.Indices)))
	for _, idx := range r.Indices {
		e.U32(idx)
	}
	return e.Buf()
}

// DecodeShardRequest parses a shard request.
func DecodeShardRequest(payload []byte) (ShardRequest, error) {
	d := codec.NewDec(payload)
	r := ShardRequest{
		Marginal:       d.Bool(),
		Epoch:          d.U64(),
		NumAtoms:       d.U32(),
		NumComps:       d.U32(),
		Seed:           d.I64(),
		MaxFlips:       d.I64(),
		MaxTries:       d.U32(),
		Samples:        d.U32(),
		DeadlineMillis: d.U32(),
	}
	for i, n := 0, d.Count(4); i < n; i++ {
		r.Indices = append(r.Indices, d.U32())
	}
	return r, finish(d)
}

// ShardComp is one component's finished outcome inside a ShardResult.
// MAP shards carry Cost/Flips/State; marginal shards carry Probs.
type ShardComp struct {
	Index uint32
	Cost  float64
	Flips int64
	// State is the component's best local assignment, 1-based (index 0
	// unused), nil for marginal shards.
	State []bool
	// Probs is the component's local marginal vector, 1-based, nil for MAP
	// shards.
	Probs []float64
}

// ShardResult answers a ShardRequest: the epoch the shard actually ran on
// (always the requested one — mismatches are errors, never results) and
// one entry per requested index, in request order.
type ShardResult struct {
	Epoch    uint64
	Marginal bool
	Comps    []ShardComp
}

// Encode serializes the result.
func (r ShardResult) Encode() []byte {
	var e codec.Enc
	e.U64(r.Epoch)
	e.Bool(r.Marginal)
	e.U32(uint32(len(r.Comps)))
	for _, c := range r.Comps {
		e.U32(c.Index)
		if r.Marginal {
			e.Floats(fromOne(c.Probs))
		} else {
			e.F64(c.Cost)
			e.I64(c.Flips)
			e.Bits(fromOne(c.State))
		}
	}
	return e.Buf()
}

// DecodeShardResult parses a shard result.
func DecodeShardResult(payload []byte) (ShardResult, error) {
	d := codec.NewDec(payload)
	r := ShardResult{Epoch: d.U64(), Marginal: d.Bool()}
	// Every component carries at least its index and one vector length.
	for i, n := 0, d.Count(8); i < n && d.Err() == nil; i++ {
		c := ShardComp{Index: d.U32()}
		if r.Marginal {
			c.Probs = d.Floats(1)
		} else {
			c.Cost = d.F64()
			c.Flips = d.I64()
			c.State = d.Bits(1)
		}
		r.Comps = append(r.Comps, c)
	}
	return r, finish(d)
}

// UpdateRequest fans one evidence delta out to a worker. The delta is the
// mln positional encoding (mln.EncodeDelta) — valid only between peers
// whose handshake proved they serve the same program.
type UpdateRequest struct {
	DeadlineMillis uint32
	Delta          []byte
}

// Encode serializes the request.
func (r UpdateRequest) Encode() []byte {
	var e codec.Enc
	e.U32(r.DeadlineMillis)
	e.Bytes(r.Delta)
	return e.Buf()
}

// DecodeUpdateRequest parses an update request.
func DecodeUpdateRequest(payload []byte) (UpdateRequest, error) {
	d := codec.NewDec(payload)
	r := UpdateRequest{DeadlineMillis: d.U32(), Delta: d.Bytes()}
	return r, finish(d)
}

// UpdateAck acknowledges an applied delta with the worker's resulting
// state, which the coordinator uses to track replica staleness.
type UpdateAck struct {
	Epoch          uint64
	Identical      bool
	UpdatesApplied uint64
}

// Encode serializes the ack.
func (a UpdateAck) Encode() []byte {
	var e codec.Enc
	e.U64(a.Epoch)
	e.Bool(a.Identical)
	e.U64(a.UpdatesApplied)
	return e.Buf()
}

// DecodeUpdateAck parses an update ack.
func DecodeUpdateAck(payload []byte) (UpdateAck, error) {
	d := codec.NewDec(payload)
	a := UpdateAck{Epoch: d.U64(), Identical: d.Bool(), UpdatesApplied: d.U64()}
	return a, finish(d)
}

// StatsReply answers a ping with the worker's live state — the fields the
// coordinator surfaces as per-worker /healthz and /metrics rows.
type StatsReply struct {
	Epoch          uint64
	UpdatesApplied uint64
	InFlight       int64
	Served         int64
}

// Encode serializes the reply.
func (s StatsReply) Encode() []byte {
	var e codec.Enc
	e.U64(s.Epoch)
	e.U64(s.UpdatesApplied)
	e.I64(s.InFlight)
	e.I64(s.Served)
	return e.Buf()
}

// DecodeStatsReply parses a ping response.
func DecodeStatsReply(payload []byte) (StatsReply, error) {
	d := codec.NewDec(payload)
	s := StatsReply{
		Epoch:          d.U64(),
		UpdatesApplied: d.U64(),
		InFlight:       d.I64(),
		Served:         d.I64(),
	}
	return s, finish(d)
}

// ---- typed cross-process errors ----

// Error codes carried by TypeError frames. DecodeRemoteError maps them
// back to the typed errors the engine raised on the worker, so errors.Is /
// errors.As work identically across the process boundary.
const (
	codeInternal      = uint16(1)
	codeEpochMismatch = uint16(2)
	codePlanMismatch  = uint16(3)
	codeBadRequest    = uint16(4)
	codeCanceled      = uint16(5)
	codeIdentity      = uint16(6)
	codeVersion       = uint16(7)
)

// EpochMismatchError reports a shard or update that named an epoch the
// worker is not serving — the worker saw an evidence update the
// coordinator's query pre-dates (or vice versa). It is retryable by
// construction: re-admitting the query on the current epoch (or running it
// on the coordinator's own pinned epoch) yields a consistent answer; a
// mixed-epoch merge is never an option.
type EpochMismatchError struct {
	Have uint64 // the worker's current generation
	Want uint64 // the generation the request named
}

func (e *EpochMismatchError) Error() string {
	return fmt.Sprintf("wire: epoch mismatch: worker serves %d, request wants %d", e.Have, e.Want)
}

// PlanMismatchError reports a worker whose component decomposition
// disagrees with the coordinator's shard plan — same fingerprints but
// diverging derived state, which indicates a version or config skew that
// the handshake could not see. It is not retryable on the same worker.
type PlanMismatchError struct {
	Detail string
}

func (e *PlanMismatchError) Error() string {
	return "wire: shard plan mismatch: " + e.Detail
}

// ErrRemoteCanceled reports a shard whose execution was canceled on the
// worker (its deadline expired there, or the worker is shutting down).
var ErrRemoteCanceled = errors.New("wire: remote execution canceled")

// RemoteError carries a worker-side failure that has no more specific
// type.
type RemoteError struct {
	Code   uint16
	Detail string
}

func (e *RemoteError) Error() string {
	return "wire: remote error: " + e.Detail
}

// EncodeError serializes any error as a TypeError payload, preserving the
// typed identity of the mismatch errors.
func EncodeError(err error) []byte {
	var e codec.Enc
	var em *EpochMismatchError
	var pm *PlanMismatchError
	switch {
	case errors.As(err, &em):
		e.U16(codeEpochMismatch)
		e.Str(err.Error())
		e.U64(em.Have)
		e.U64(em.Want)
	case errors.As(err, &pm):
		e.U16(codePlanMismatch)
		e.Str(pm.Detail)
	case errors.Is(err, ErrIdentityMismatch):
		e.U16(codeIdentity)
		e.Str(err.Error())
	case errors.Is(err, ErrVersionMismatch):
		e.U16(codeVersion)
		e.Str(err.Error())
	case errors.Is(err, ErrBadPayload):
		e.U16(codeBadRequest)
		e.Str(err.Error())
	case errors.Is(err, ErrRemoteCanceled):
		e.U16(codeCanceled)
		e.Str(err.Error())
	default:
		e.U16(codeInternal)
		e.Str(err.Error())
	}
	return e.Buf()
}

// DecodeRemoteError parses a TypeError payload back into the typed error
// it was encoded from. A payload that itself fails to decode reports
// ErrBadPayload.
func DecodeRemoteError(payload []byte) error {
	d := codec.NewDec(payload)
	code := d.U16()
	detail := d.Str()
	var have, want uint64
	if code == codeEpochMismatch {
		have, want = d.U64(), d.U64()
	}
	if err := finish(d); err != nil {
		return err
	}
	switch code {
	case codeEpochMismatch:
		return &EpochMismatchError{Have: have, Want: want}
	case codePlanMismatch:
		return &PlanMismatchError{Detail: detail}
	case codeCanceled:
		return fmt.Errorf("%w: %s", ErrRemoteCanceled, detail)
	case codeIdentity:
		return fmt.Errorf("%w (remote): %s", ErrIdentityMismatch, detail)
	case codeVersion:
		return fmt.Errorf("%w (remote): %s", ErrVersionMismatch, detail)
	case codeBadRequest:
		return fmt.Errorf("%w (remote): %s", ErrBadPayload, detail)
	default:
		return &RemoteError{Code: code, Detail: detail}
	}
}
