package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

// updateGolden rewrites testdata/frames.golden from the code under test.
// The committed file was captured BEFORE internal/codec replaced this
// package's private encoder, so a passing run proves a worker from that
// build and a coordinator from this one still understand each other —
// which is why Version did not have to move.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/frames.golden")

const goldenFrames = "testdata/frames.golden"

// goldenFrame is one pinned frame: its message, and a decoder that returns
// the message back for the round-trip comparison.
type goldenFrame struct {
	name   string
	typ    byte
	msg    any
	encode func() []byte
	decode func([]byte) (any, error)
}

func goldenFrameSet() []goldenFrame {
	hello := Hello{Version: Version, ProgFP: 0xDEADBEEF01, EvFP: 0xFEED02, CfgFP: 0xC0FFEE, Epoch: 7}
	mapReq := ShardRequest{
		Epoch: 3, NumAtoms: 120, NumComps: 9,
		Seed: -42, MaxFlips: 1e6, MaxTries: 2,
		DeadlineMillis: 1500, Indices: []uint32{0, 3, 8},
	}
	margReq := ShardRequest{Marginal: true, Epoch: 4, NumAtoms: 77, NumComps: 5, Seed: 9, Samples: 200, Indices: []uint32{1}}
	mapRes := ShardResult{Epoch: 3, Comps: []ShardComp{
		{Index: 0, Cost: 1.5, Flips: 120, State: []bool{false, true, false, true}},
		{Index: 3, Cost: 0, Flips: 0, State: []bool{false}},
		{Index: 8, Cost: math.Inf(1), Flips: 9, State: []bool{false, true, true, true, true, true, true, true, true, false}},
	}}
	margRes := ShardResult{Epoch: 9, Marginal: true, Comps: []ShardComp{
		{Index: 1, Probs: []float64{0, 0.25, 1, 1.0 / 3}},
		{Index: 2, Probs: []float64{0}},
	}}
	upd := UpdateRequest{DeadlineMillis: 900, Delta: []byte{1, 2, 3}}
	ack := UpdateAck{Epoch: 4, Identical: true, UpdatesApplied: 17}
	stats := StatsReply{Epoch: 2, UpdatesApplied: 5, InFlight: 1, Served: 99}

	frames := []goldenFrame{
		{"hello", TypeHello, hello, hello.Encode, func(b []byte) (any, error) { return DecodeHello(b) }},
		{"hello-ack", TypeHelloAck, hello, hello.Encode, func(b []byte) (any, error) { return DecodeHello(b) }},
		{"infer-map", TypeInfer, mapReq, mapReq.Encode, func(b []byte) (any, error) { return DecodeShardRequest(b) }},
		{"infer-marginal", TypeInfer, margReq, margReq.Encode, func(b []byte) (any, error) { return DecodeShardRequest(b) }},
		{"reply-map", TypeInferReply, mapRes, mapRes.Encode, func(b []byte) (any, error) { return DecodeShardResult(b) }},
		{"reply-marginal", TypeInferReply, margRes, margRes.Encode, func(b []byte) (any, error) { return DecodeShardResult(b) }},
		{"update", TypeUpdate, upd, upd.Encode, func(b []byte) (any, error) { return DecodeUpdateRequest(b) }},
		{"update-ack", TypeUpdateAck, ack, ack.Encode, func(b []byte) (any, error) { return DecodeUpdateAck(b) }},
		{"pong", TypePong, stats, stats.Encode, func(b []byte) (any, error) { return DecodeStatsReply(b) }},
	}
	// Error frames decode to an error, compared by message and by the typed
	// identity errors.Is / errors.As recover on the far side.
	for _, e := range []struct {
		name string
		err  error
	}{
		{"error-epoch", &EpochMismatchError{Have: 9, Want: 4}},
		{"error-plan", &PlanMismatchError{Detail: "comps 4 != 5"}},
		{"error-identity", fmt.Errorf("%w: local 1, peer 2", ErrIdentityMismatch)},
		{"error-version", fmt.Errorf("%w: local 1, peer 2", ErrVersionMismatch)},
		{"error-payload", fmt.Errorf("%w: 3 trailing bytes", ErrBadPayload)},
		{"error-canceled", fmt.Errorf("%w: context deadline exceeded", ErrRemoteCanceled)},
		{"error-internal", errors.New("boom")},
	} {
		err := e.err
		frames = append(frames, goldenFrame{e.name, TypeError, DecodeRemoteError(EncodeError(err)).Error(),
			func() []byte { return EncodeError(err) },
			func(b []byte) (any, error) { return DecodeRemoteError(b).Error(), nil }})
	}
	return frames
}

func TestGoldenFrames(t *testing.T) {
	frames := goldenFrameSet()
	if *updateGolden {
		var out strings.Builder
		for _, f := range frames {
			frame, err := AppendFrame(nil, f.typ, f.encode())
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, "%s %s\n", f.name, hex.EncodeToString(frame))
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFrames, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(goldenFrames)
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string][]byte{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		name, h, _ := strings.Cut(line, " ")
		b, err := hex.DecodeString(h)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		golden[name] = b
	}
	if len(golden) != len(frames) {
		t.Fatalf("golden file pins %d frames, test has %d", len(golden), len(frames))
	}
	for _, f := range frames {
		want := golden[f.name]
		frame, err := AppendFrame(nil, f.typ, f.encode())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(frame, want) {
			t.Errorf("%s: encoding changed:\n got %x\nwant %x", f.name, frame, want)
			continue
		}
		typ, payload, err := ReadFrame(bytes.NewReader(want))
		if err != nil || typ != f.typ {
			t.Errorf("%s: golden frame reads as type %d, err %v", f.name, typ, err)
			continue
		}
		if got, err := f.decode(payload); err != nil || !reflect.DeepEqual(got, f.msg) {
			t.Errorf("%s: golden frame decodes to %+v (err %v), want %+v", f.name, got, err, f.msg)
		}
	}
}
