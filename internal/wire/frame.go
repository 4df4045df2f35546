// Package wire is the framed binary protocol of the distributed inference
// tier: the coordinator (tuffy.Serve with ServerConfig.Workers) speaks it
// to worker processes (tuffyd -worker) that host grounded Engine replicas
// behind TCP. The layer below the messages is deliberately small and
// paranoid — every frame is length-prefixed, CRC-checked and size-bounded,
// and every way a frame can be malformed maps to a typed error, never a
// panic or an unbounded allocation (FuzzFrame holds that line).
//
// Framing: a 12-byte header | 2-byte magic | type | flags | 4-byte payload
// length | 4-byte CRC32-C of the payload | followed by the payload. Frames
// carry one message each; requests and responses alternate on a
// connection, so a session needs no request ids — the client side gets its
// concurrency from a pool of connections instead.
//
// A session starts with a versioned handshake (Hello/HelloAck) carrying
// the program, base-evidence and config fingerprints plus the current
// epoch of each side: a worker grounded from different inputs is rejected
// at dial time, never discovered via diverging answers.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Version is the protocol version carried in the handshake; both sides
// must match exactly (the protocol has no negotiation — coordinator and
// workers ship from one build).
const Version = 1

// magic marks every frame; anything else on the stream is a foreign
// client (or a corrupted stream) and kills the connection.
const magic = 0x54F1

// headerLen is the fixed frame header size.
const headerLen = 12

// MaxFrame bounds one frame's payload. Shard results carry per-component
// bitsets and marginal vectors, which stay far below this even for
// networks of hundreds of millions of atoms.
const MaxFrame = 64 << 20

// Frame types. Requests flow coordinator -> worker; every request is
// answered by its response type or TypeError.
const (
	TypeHello      = byte(1) // handshake request (Hello)
	TypeHelloAck   = byte(2) // handshake response (Hello, the worker's identity)
	TypeInfer      = byte(3) // infer-component request (ShardRequest)
	TypeInferReply = byte(4) // infer-component response (ShardResult)
	TypeUpdate     = byte(5) // update-evidence request (UpdateRequest)
	TypeUpdateAck  = byte(6) // update-evidence response (UpdateAck)
	TypePing       = byte(7) // health probe, empty payload
	TypePong       = byte(8) // health response (StatsReply)
	TypeError      = byte(9) // error response (encoded typed error)
)

// Typed framing errors. Decoders wrap these with context; match with
// errors.Is.
var (
	// ErrBadMagic reports a frame that does not start with the protocol
	// magic — a foreign client or a corrupted stream.
	ErrBadMagic = errors.New("wire: bad frame magic")
	// ErrFrameTooLarge reports a frame whose declared payload exceeds the
	// size limit; the frame is rejected before any allocation.
	ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")
	// ErrChecksum reports a payload whose CRC32-C does not match the header.
	ErrChecksum = errors.New("wire: frame checksum mismatch")
	// ErrTruncated reports a stream that ended inside a frame.
	ErrTruncated = errors.New("wire: truncated frame")
	// ErrBadPayload reports a syntactically valid frame whose payload does
	// not decode as its message type.
	ErrBadPayload = errors.New("wire: malformed payload")
	// ErrVersionMismatch rejects a handshake from a different protocol
	// version.
	ErrVersionMismatch = errors.New("wire: protocol version mismatch")
	// ErrIdentityMismatch rejects a handshake whose program, evidence or
	// config fingerprints differ — the peers were not built from the same
	// inputs, so their answers would not be interchangeable.
	ErrIdentityMismatch = errors.New("wire: program/evidence/config fingerprint mismatch")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends one framed message to dst and returns the extended
// slice. It fails only when the payload exceeds MaxFrame.
func AppendFrame(dst []byte, typ byte, payload []byte) ([]byte, error) {
	if len(payload) > MaxFrame {
		return dst, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(payload))
	}
	var hdr [headerLen]byte
	hdr[0] = byte(magic >> 8)
	hdr[1] = byte(magic & 0xFF)
	hdr[2] = typ
	hdr[3] = 0 // flags, reserved
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[8:12], crc32.Checksum(payload, castagnoli))
	return append(append(dst, hdr[:]...), payload...), nil
}

// WriteFrame writes one framed message.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	buf, err := AppendFrame(make([]byte, 0, headerLen+len(payload)), typ, payload)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// ReadFrame reads one framed message, enforcing the magic, the size bound
// and the checksum. Truncation anywhere inside the frame returns
// ErrTruncated; a clean EOF before the first header byte returns io.EOF
// (the peer closed between messages, which is how sessions end).
func ReadFrame(r io.Reader) (typ byte, payload []byte, err error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("%w: header: %v", ErrTruncated, err)
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return 0, nil, fmt.Errorf("%w: header: %v", ErrTruncated, err)
	}
	if uint16(hdr[0])<<8|uint16(hdr[1]) != magic {
		return 0, nil, ErrBadMagic
	}
	typ = hdr[2]
	n := binary.LittleEndian.Uint32(hdr[4:8])
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("%w: %d bytes declared", ErrFrameTooLarge, n)
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("%w: payload: %v", ErrTruncated, err)
	}
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(hdr[8:12]) {
		return 0, nil, ErrChecksum
	}
	return typ, payload, nil
}
