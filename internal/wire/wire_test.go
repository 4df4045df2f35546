package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

func TestFrameRoundtrip(t *testing.T) {
	payloads := [][]byte{nil, {}, {0}, []byte("hello"), bytes.Repeat([]byte{0xAB}, 4096)}
	var buf bytes.Buffer
	for _, p := range payloads {
		if err := WriteFrame(&buf, TypeInfer, p); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	for _, p := range payloads {
		typ, got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if typ != TypeInfer || !bytes.Equal(got, p) {
			t.Fatalf("roundtrip mismatch: type %d payload %v want %v", typ, got, p)
		}
	}
	if _, _, err := ReadFrame(&buf); !errors.Is(err, io.EOF) {
		t.Fatalf("drained stream: got %v, want io.EOF", err)
	}
}

func TestFrameErrors(t *testing.T) {
	frame, err := AppendFrame(nil, TypePing, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}

	t.Run("bad magic", func(t *testing.T) {
		b := append([]byte(nil), frame...)
		b[0] ^= 0xFF
		if _, _, err := ReadFrame(bytes.NewReader(b)); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("got %v, want ErrBadMagic", err)
		}
	})
	t.Run("checksum", func(t *testing.T) {
		b := append([]byte(nil), frame...)
		b[len(b)-1] ^= 0xFF
		if _, _, err := ReadFrame(bytes.NewReader(b)); !errors.Is(err, ErrChecksum) {
			t.Fatalf("got %v, want ErrChecksum", err)
		}
	})
	t.Run("truncated header", func(t *testing.T) {
		if _, _, err := ReadFrame(bytes.NewReader(frame[:5])); !errors.Is(err, ErrTruncated) {
			t.Fatalf("got %v, want ErrTruncated", err)
		}
	})
	t.Run("truncated payload", func(t *testing.T) {
		if _, _, err := ReadFrame(bytes.NewReader(frame[:len(frame)-2])); !errors.Is(err, ErrTruncated) {
			t.Fatalf("got %v, want ErrTruncated", err)
		}
	})
	t.Run("oversized declared", func(t *testing.T) {
		b := append([]byte(nil), frame...)
		binary.LittleEndian.PutUint32(b[4:8], MaxFrame+1)
		if _, _, err := ReadFrame(bytes.NewReader(b)); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("got %v, want ErrFrameTooLarge", err)
		}
	})
	t.Run("oversized write", func(t *testing.T) {
		if _, err := AppendFrame(nil, TypePing, make([]byte, MaxFrame+1)); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("got %v, want ErrFrameTooLarge", err)
		}
	})
}

func TestMessageRoundtrips(t *testing.T) {
	hello := Hello{Version: Version, ProgFP: 0xDEADBEEF01, EvFP: 0xFEED02, CfgFP: 0xC0FFEE, Epoch: 7}
	if got, err := DecodeHello(hello.Encode()); err != nil || got != hello {
		t.Fatalf("hello: got %+v err %v", got, err)
	}

	req := ShardRequest{
		Marginal: false, Epoch: 3, NumAtoms: 120, NumComps: 9,
		Seed: -42, MaxFlips: 1e6, MaxTries: 2, Samples: 0,
		DeadlineMillis: 1500, Indices: []uint32{0, 3, 8},
	}
	if got, err := DecodeShardRequest(req.Encode()); err != nil || !reflect.DeepEqual(got, req) {
		t.Fatalf("shard request: got %+v err %v", got, err)
	}

	mapRes := ShardResult{Epoch: 3, Comps: []ShardComp{
		{Index: 0, Cost: 1.5, Flips: 120, State: []bool{false, true, false, true}},
		{Index: 3, Cost: 0, Flips: 0, State: []bool{false}},
		{Index: 8, Cost: math.Inf(1), Flips: 9, State: []bool{false, true, true, true, true, true, true, true, true, false}},
	}}
	got, err := DecodeShardResult(mapRes.Encode())
	if err != nil || !reflect.DeepEqual(got, mapRes) {
		t.Fatalf("map shard result: got %+v err %v", got, err)
	}

	margRes := ShardResult{Epoch: 9, Marginal: true, Comps: []ShardComp{
		{Index: 1, Probs: []float64{0, 0.25, 1, 0.005}},
	}}
	got, err = DecodeShardResult(margRes.Encode())
	if err != nil || !reflect.DeepEqual(got, margRes) {
		t.Fatalf("marginal shard result: got %+v err %v", got, err)
	}

	upd := UpdateRequest{DeadlineMillis: 900, Delta: []byte{1, 2, 3}}
	if got, err := DecodeUpdateRequest(upd.Encode()); err != nil || !reflect.DeepEqual(got, upd) {
		t.Fatalf("update request: got %+v err %v", got, err)
	}

	ack := UpdateAck{Epoch: 4, Identical: true, UpdatesApplied: 17}
	if got, err := DecodeUpdateAck(ack.Encode()); err != nil || got != ack {
		t.Fatalf("update ack: got %+v err %v", got, err)
	}

	stats := StatsReply{Epoch: 2, UpdatesApplied: 5, InFlight: 1, Served: 99}
	if got, err := DecodeStatsReply(stats.Encode()); err != nil || got != stats {
		t.Fatalf("stats: got %+v err %v", got, err)
	}
}

func TestMessageTrailingBytesRejected(t *testing.T) {
	b := append(Hello{Version: Version}.Encode(), 0xFF)
	if _, err := DecodeHello(b); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("trailing bytes: got %v, want ErrBadPayload", err)
	}
	if _, err := DecodeShardRequest([]byte{1, 2}); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("short payload: got %v, want ErrBadPayload", err)
	}
}

func TestErrorCodec(t *testing.T) {
	em := &EpochMismatchError{Have: 9, Want: 4}
	var gotEM *EpochMismatchError
	if err := DecodeRemoteError(EncodeError(em)); !errors.As(err, &gotEM) || *gotEM != *em {
		t.Fatalf("epoch mismatch roundtrip: %v", err)
	}

	pm := &PlanMismatchError{Detail: "comps 4 != 5"}
	var gotPM *PlanMismatchError
	if err := DecodeRemoteError(EncodeError(pm)); !errors.As(err, &gotPM) || gotPM.Detail != pm.Detail {
		t.Fatalf("plan mismatch roundtrip: %v", err)
	}

	if err := DecodeRemoteError(EncodeError(context.DeadlineExceeded)); err == nil {
		t.Fatal("nil error from encoded deadline error")
	}
	if err := DecodeRemoteError(EncodeError(mapCancel(context.DeadlineExceeded))); !errors.Is(err, ErrRemoteCanceled) {
		t.Fatalf("cancel roundtrip: %v", err)
	}

	var re *RemoteError
	if err := DecodeRemoteError(EncodeError(errors.New("boom"))); !errors.As(err, &re) || re.Detail != "boom" {
		t.Fatalf("generic roundtrip: %v", err)
	}

	if err := DecodeRemoteError([]byte{1}); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("malformed error payload: got %v, want ErrBadPayload", err)
	}
}

func TestHelloCheck(t *testing.T) {
	us := Hello{Version: Version, ProgFP: 1, EvFP: 2, CfgFP: 3}
	if err := us.Check(Hello{Version: Version, ProgFP: 1, EvFP: 2, CfgFP: 3, Epoch: 42}); err != nil {
		t.Fatalf("matching identity rejected: %v", err)
	}
	if err := us.Check(Hello{Version: Version + 1, ProgFP: 1, EvFP: 2, CfgFP: 3}); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("version skew: got %v", err)
	}
	for _, peer := range []Hello{
		{Version: Version, ProgFP: 9, EvFP: 2, CfgFP: 3},
		{Version: Version, ProgFP: 1, EvFP: 9, CfgFP: 3},
		{Version: Version, ProgFP: 1, EvFP: 2, CfgFP: 9},
	} {
		if err := us.Check(peer); !errors.Is(err, ErrIdentityMismatch) {
			t.Fatalf("fingerprint skew %+v: got %v", peer, err)
		}
	}
}

// testHandler is a loopback Handler for session tests.
type testHandler struct {
	identity Hello
	infer    func(ctx context.Context, req ShardRequest) (ShardResult, error)
	served   atomic.Int64
}

func (h *testHandler) Handshake(peer Hello) (Hello, error) {
	if err := h.identity.Check(peer); err != nil {
		return Hello{}, err
	}
	return h.identity, nil
}

func (h *testHandler) Infer(ctx context.Context, req ShardRequest) (ShardResult, error) {
	h.served.Add(1)
	if h.infer != nil {
		return h.infer(ctx, req)
	}
	res := ShardResult{Epoch: req.Epoch, Marginal: req.Marginal}
	for _, idx := range req.Indices {
		res.Comps = append(res.Comps, ShardComp{Index: idx, Cost: float64(idx), State: []bool{false, true}})
	}
	return res, nil
}

func (h *testHandler) Update(ctx context.Context, req UpdateRequest) (UpdateAck, error) {
	return UpdateAck{Epoch: 1, UpdatesApplied: uint64(len(req.Delta))}, nil
}

func (h *testHandler) Stats() StatsReply {
	return StatsReply{Epoch: 1, Served: h.served.Load()}
}

// startServer runs Serve on an ephemeral port and returns its address and
// a shutdown func that waits for the accept loop to exit.
func startServer(t *testing.T, h Handler) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- Serve(ctx, ln, h) }()
	return ln.Addr().String(), func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}
}

func TestSessionRoundtrip(t *testing.T) {
	h := &testHandler{identity: Hello{Version: Version, ProgFP: 1, EvFP: 2, CfgFP: 3, Epoch: 1}}
	addr, shutdown := startServer(t, h)
	defer shutdown()

	c, err := Dial(context.Background(), addr, h.identity)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	req := ShardRequest{Epoch: 1, Indices: []uint32{2, 5}}
	reply, err := c.Roundtrip(context.Background(), TypeInfer, req.Encode(), TypeInferReply)
	if err != nil {
		t.Fatalf("Roundtrip: %v", err)
	}
	res, err := DecodeShardResult(reply)
	if err != nil || len(res.Comps) != 2 || res.Comps[1].Index != 5 {
		t.Fatalf("shard result: %+v err %v", res, err)
	}

	// Same connection serves multiple requests.
	if _, err := c.Roundtrip(context.Background(), TypePing, nil, TypePong); err != nil {
		t.Fatalf("ping: %v", err)
	}
	ackB, err := c.Roundtrip(context.Background(), TypeUpdate, UpdateRequest{Delta: []byte{1, 2}}.Encode(), TypeUpdateAck)
	if err != nil {
		t.Fatalf("update: %v", err)
	}
	if ack, err := DecodeUpdateAck(ackB); err != nil || ack.UpdatesApplied != 2 {
		t.Fatalf("update ack: %+v err %v", ack, err)
	}
}

func TestSessionTypedErrors(t *testing.T) {
	h := &testHandler{
		identity: Hello{Version: Version, ProgFP: 1, EvFP: 2, CfgFP: 3},
		infer: func(ctx context.Context, req ShardRequest) (ShardResult, error) {
			return ShardResult{}, &EpochMismatchError{Have: 8, Want: req.Epoch}
		},
	}
	addr, shutdown := startServer(t, h)
	defer shutdown()

	c, err := Dial(context.Background(), addr, h.identity)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.Roundtrip(context.Background(), TypeInfer, ShardRequest{Epoch: 5}.Encode(), TypeInferReply)
	var em *EpochMismatchError
	if !errors.As(err, &em) || em.Have != 8 || em.Want != 5 {
		t.Fatalf("typed error across the wire: %v", err)
	}

	// The session survives a request-level error.
	if _, err := c.Roundtrip(context.Background(), TypePing, nil, TypePong); err != nil {
		t.Fatalf("ping after error: %v", err)
	}

	// A malformed request payload yields a typed bad-payload error.
	if _, err := c.Roundtrip(context.Background(), TypeInfer, []byte{1, 2, 3}, TypeInferReply); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("malformed request: %v", err)
	}
	// An unknown frame type likewise.
	if _, err := c.Roundtrip(context.Background(), 200, nil, TypePong); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("unknown type: %v", err)
	}
}

func TestDialRejectsIdentityMismatch(t *testing.T) {
	h := &testHandler{identity: Hello{Version: Version, ProgFP: 1, EvFP: 2, CfgFP: 3}}
	addr, shutdown := startServer(t, h)
	defer shutdown()

	_, err := Dial(context.Background(), addr, Hello{Version: Version, ProgFP: 99, EvFP: 2, CfgFP: 3})
	if !errors.Is(err, ErrIdentityMismatch) {
		t.Fatalf("got %v, want ErrIdentityMismatch", err)
	}
	_, err = Dial(context.Background(), addr, Hello{Version: Version + 1, ProgFP: 1, EvFP: 2, CfgFP: 3})
	if !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("got %v, want ErrVersionMismatch", err)
	}
}

func TestServeShutdownCutsSessions(t *testing.T) {
	h := &testHandler{identity: Hello{Version: Version, ProgFP: 1, EvFP: 2, CfgFP: 3}}
	block := make(chan struct{})
	h.infer = func(ctx context.Context, req ShardRequest) (ShardResult, error) {
		close(block)
		<-ctx.Done()
		return ShardResult{}, ctx.Err()
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- Serve(ctx, ln, h) }()

	c, err := Dial(context.Background(), ln.Addr().String(), h.identity)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	callErr := make(chan error, 1)
	go func() {
		_, err := c.Roundtrip(context.Background(), TypeInfer, ShardRequest{}.Encode(), TypeInferReply)
		callErr <- err
	}()
	<-block
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Serve after shutdown: %v", err)
	}
	select {
	case err := <-callErr:
		if err == nil {
			t.Fatal("in-flight call survived server shutdown without error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight call not released by shutdown")
	}
}

func TestInferDeadlinePropagates(t *testing.T) {
	h := &testHandler{identity: Hello{Version: Version, ProgFP: 1, EvFP: 2, CfgFP: 3}}
	h.infer = func(ctx context.Context, req ShardRequest) (ShardResult, error) {
		<-ctx.Done()
		return ShardResult{}, ctx.Err()
	}
	addr, shutdown := startServer(t, h)
	defer shutdown()

	c, err := Dial(context.Background(), addr, h.identity)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Roundtrip(context.Background(), TypeInfer, ShardRequest{DeadlineMillis: 30}.Encode(), TypeInferReply)
	if !errors.Is(err, ErrRemoteCanceled) {
		t.Fatalf("got %v, want ErrRemoteCanceled", err)
	}
}
