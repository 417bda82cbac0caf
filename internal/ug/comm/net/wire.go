// Package netcomm implements the distributed-memory TCP transport of
// the UG communicator abstraction (import path internal/ug/comm/net):
// the coordinator and each ParaSolver run as separate OS processes on
// one or many hosts, connected through a length-prefixed deterministic
// binary wire protocol with a rendezvous handshake, per-peer send
// loops, heartbeats, and built-in fault injection for tests. It plays
// the role MPI plays for the paper's ug[SCIP-*, MPI] instantiations.
//
// Wire format. Every frame is
//
//	uint32 big-endian body length | uint8 frame type | body
//
// with five frame types:
//
//	data      int32 from | int8 tag | uint64 lamport clock | uint32 payload length | payload
//	hello     uint32 magic | uint16 protocol version | int32 rank
//	welcome   uint16 protocol version | int32 roster size
//	reject    uint16 reason length | reason bytes
//	heartbeat (empty body)
//	goodbye   (empty body)
//
// The encoding has a fixed field order and no reflection, so identical
// messages encode to identical bytes on every architecture — the same
// determinism contract the obs trace codec follows, and the reason gob
// (whose stream format depends on type-registration order) stays off
// the wire.
package netcomm

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/ug/comm"
)

// ProtocolVersion is the rendezvous protocol version. A coordinator
// rejects hellos carrying any other version: mixed-build rosters fail
// at connect time instead of desynchronizing mid-run. Version 2 added
// the Lamport clock field to data frames (distributed trace merging).
const ProtocolVersion uint16 = 2

// protocolMagic opens every hello frame ("UGN" + version byte slot);
// it rejects strangers dialing the rendezvous port by accident.
const protocolMagic uint32 = 0x55474E31 // "UGN1"

// Frame types.
const (
	frameData      byte = 0
	frameHello     byte = 1
	frameWelcome   byte = 2
	frameReject    byte = 3
	frameHeartbeat byte = 4
	frameGoodbye   byte = 5
)

// maxFrameBody bounds one frame body (64 MiB). Subproblem payloads are
// kilobytes in practice; the cap keeps a corrupt or hostile length
// prefix from allocating unbounded memory.
const maxFrameBody = 64 << 20

// AppendMessage appends the deterministic binary encoding of m's data
// frame body (from, tag, lamport clock, payload) to buf and returns the
// extended slice. clock is the sender's Lamport timestamp for this send
// (0 when tracing is off — the receiver then treats the frame as
// carrying no causal information). Exported so the codec tests can pin
// byte-level determinism.
func AppendMessage(buf []byte, m comm.Message, clock int64) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(int32(m.From)))
	buf = append(buf, byte(m.Tag))
	buf = binary.BigEndian.AppendUint64(buf, uint64(clock))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.Payload)))
	return append(buf, m.Payload...)
}

// DecodeMessage decodes a data frame body produced by AppendMessage,
// returning the message and the sender's Lamport clock.
func DecodeMessage(body []byte) (comm.Message, int64, error) {
	if len(body) < 17 {
		return comm.Message{}, 0, fmt.Errorf("netcomm: data frame truncated: %d bytes", len(body))
	}
	m := comm.Message{
		From: int(int32(binary.BigEndian.Uint32(body[:4]))),
		Tag:  comm.Tag(int8(body[4])),
	}
	clock := int64(binary.BigEndian.Uint64(body[5:13]))
	n := binary.BigEndian.Uint32(body[13:17])
	if uint32(len(body)-17) != n {
		return comm.Message{}, 0, fmt.Errorf("netcomm: payload length %d != remaining %d", n, len(body)-17)
	}
	if n > 0 {
		//lint:ignore hotalloc payload ownership transfers to the mailbox; the frame buffer is reused underneath it
		m.Payload = append([]byte(nil), body[17:]...)
	}
	return m, clock, nil
}

// appendHello encodes a hello frame body for rank.
func appendHello(buf []byte, rank int) []byte {
	buf = binary.BigEndian.AppendUint32(buf, protocolMagic)
	buf = binary.BigEndian.AppendUint16(buf, ProtocolVersion)
	return binary.BigEndian.AppendUint32(buf, uint32(int32(rank)))
}

// decodeHello decodes a hello frame body, returning the announced rank
// and protocol version. The magic is checked here; version policy is
// the caller's.
func decodeHello(body []byte) (rank int, version uint16, err error) {
	if len(body) != 10 {
		return 0, 0, fmt.Errorf("netcomm: hello frame is %d bytes, want 10", len(body))
	}
	if magic := binary.BigEndian.Uint32(body[:4]); magic != protocolMagic {
		return 0, 0, fmt.Errorf("netcomm: bad hello magic %#x", magic)
	}
	version = binary.BigEndian.Uint16(body[4:6])
	rank = int(int32(binary.BigEndian.Uint32(body[6:10])))
	return rank, version, nil
}

// appendWelcome encodes a welcome frame body carrying the roster size.
func appendWelcome(buf []byte, size int) []byte {
	buf = binary.BigEndian.AppendUint16(buf, ProtocolVersion)
	return binary.BigEndian.AppendUint32(buf, uint32(int32(size)))
}

// decodeWelcome decodes a welcome frame body.
func decodeWelcome(body []byte) (size int, err error) {
	if len(body) != 6 {
		return 0, fmt.Errorf("netcomm: welcome frame is %d bytes, want 6", len(body))
	}
	if v := binary.BigEndian.Uint16(body[:2]); v != ProtocolVersion {
		return 0, fmt.Errorf("netcomm: welcome protocol version %d, want %d", v, ProtocolVersion)
	}
	return int(int32(binary.BigEndian.Uint32(body[2:6]))), nil
}

// appendReject encodes a reject frame body with a human-readable reason.
func appendReject(buf []byte, reason string) []byte {
	if len(reason) > 1<<15 {
		reason = reason[:1<<15]
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(reason)))
	return append(buf, reason...)
}

// decodeReject decodes a reject frame body.
func decodeReject(body []byte) (string, error) {
	if len(body) < 2 {
		return "", fmt.Errorf("netcomm: reject frame truncated")
	}
	n := int(binary.BigEndian.Uint16(body[:2]))
	if len(body)-2 != n {
		return "", fmt.Errorf("netcomm: reject reason length %d != remaining %d", n, len(body)-2)
	}
	return string(body[2:]), nil
}

// writeFrame writes one frame (length prefix, type byte, body) to w.
// The caller owns synchronization on w.
func writeFrame(w io.Writer, ftype byte, body []byte) error {
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(body)))
	hdr[4] = ftype
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(body) > 0 {
		if _, err := w.Write(body); err != nil {
			return err
		}
	}
	return nil
}

// frameStep bounds how far readFrameInto grows its buffer ahead of the
// bytes that have arrived.
const frameStep = 64 << 10

// readFrameInto reads one frame from r, enforcing maxFrameBody. The
// body is read into buf and aliases the returned newBuf, which the
// caller passes back in on the next call: the steady-state receive path
// then allocates nothing. A buffer that is short grows to at most twice
// the bytes read so far plus frameStep before it is filled, so a
// corrupt or hostile length prefix costs about what the peer actually
// sends, not maxFrameBody.
func readFrameInto(r *bufio.Reader, buf []byte) (ftype byte, body, newBuf []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, buf, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:4]))
	if n > maxFrameBody {
		return 0, nil, buf, fmt.Errorf("netcomm: frame body %d bytes exceeds limit %d", n, maxFrameBody)
	}
	for body = buf[:0]; len(body) < n; {
		k := min(n, max(cap(buf), 2*len(body)+frameStep))
		if cap(buf) < k {
			buf = make([]byte, k)
			copy(buf, body)
		}
		if _, err := io.ReadFull(r, buf[len(body):k]); err != nil {
			return 0, nil, buf, fmt.Errorf("netcomm: truncated frame body: %w", err)
		}
		body = buf[:k]
	}
	return hdr[4], body, buf, nil
}

// readFrame reads one frame from r into a fresh buffer — the one-shot
// variant used during the rendezvous handshake.
func readFrame(r *bufio.Reader) (ftype byte, body []byte, err error) {
	ftype, body, _, err = readFrameInto(r, nil)
	return ftype, body, err
}
