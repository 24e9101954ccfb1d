// Package clientapi is the external client protocol of the ordering
// service: a length-framed TCP codec exposing the AtomicBroadcast surface
// (Broadcast with typed status acks, Deliver positioned by a SeekInfo) to
// processes outside the cluster, the way Fabric's orderer exposes
// ab.AtomicBroadcast over gRPC. cmd/frontend serves it; any process can
// speak it with the Client in this package or a ~page of code in another
// language.
//
// Framing: every message is a big-endian uint32 payload length followed
// by the payload; the payload is one type byte followed by the message
// body in the deterministic internal/wire encoding.
//
// Client -> server:
//
//	broadcast:  u64 request id, bytes envelope
//	deliver:    u64 stream id, string channel, seek info (see fabric.SeekInfo)
//	cancel:     u64 stream id
//
// Server -> client:
//
//	ack:        u64 request id, u16 status, string detail
//	block:      u64 stream id, bytes block
//	stream end: u64 stream id, u16 status, string detail
//
// Either direction (keepalive):
//
//	ping:       u64 nonce
//	pong:       u64 nonce (echoed)
//
// Broadcast requests are acknowledged in submission order with the typed
// BroadcastStatus. Deliver streams carry blocks in order, then exactly one
// stream-end frame (StatusSuccess after a stop position or cancel,
// otherwise the status describing the failure). A Deliver positioned
// below the orderer's retention floor ends with StatusNotFound (the
// blocks were pruned). The server pings after an idle period and drops
// connections that stay silent through the grace period, so dead clients
// release their Deliver streams and backpressure window promptly; every
// client must answer pings with pongs (the Client here does).
package clientapi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/fabric"
	"repro/internal/wire"
)

// Message type bytes.
const (
	msgBroadcast byte = 1 + iota
	msgDeliver
	msgCancel
	msgAck
	msgBlock
	msgStreamEnd
	// msgPing / msgPong are the keepalive frames: either side may ping
	// (the server does, after an idle period) and the peer answers with
	// a pong echoing the nonce. A connection that stays silent through
	// the ping grace period is dead and is dropped, releasing its
	// Deliver streams and backpressure window promptly.
	msgPing
	msgPong
)

// maxFrameBytes bounds one frame to protect both sides against corrupt or
// hostile length prefixes.
const maxFrameBytes = 64 << 20

// Codec errors.
var (
	ErrFrameTooLarge = errors.New("clientapi: frame exceeds maximum size")
	ErrBadFrame      = errors.New("clientapi: malformed frame")
)

// writeFrame writes one length-prefixed frame.
func writeFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one length-prefixed frame.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrameBytes {
		return nil, ErrFrameTooLarge
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// ---- frame bodies ------------------------------------------------------

func encodeBroadcast(id uint64, envelope []byte) []byte {
	w := wire.NewWriter(16 + len(envelope))
	w.PutByte(msgBroadcast)
	w.PutUint64(id)
	w.PutBytes(envelope)
	return w.Bytes()
}

func encodeDeliver(streamID uint64, channel string, seek fabric.SeekInfo) []byte {
	w := wire.NewWriter(32 + len(channel))
	w.PutByte(msgDeliver)
	w.PutUint64(streamID)
	w.PutString(channel)
	seek.MarshalInto(w)
	return w.Bytes()
}

func encodeCancel(streamID uint64) []byte {
	w := wire.NewWriter(16)
	w.PutByte(msgCancel)
	w.PutUint64(streamID)
	return w.Bytes()
}

func encodeAck(id uint64, status fabric.BroadcastStatus, detail string) []byte {
	w := wire.NewWriter(16 + len(detail))
	w.PutByte(msgAck)
	w.PutUint64(id)
	w.PutUint16(uint16(status))
	w.PutString(detail)
	return w.Bytes()
}

func encodeBlock(streamID uint64, block *fabric.Block) []byte {
	raw := block.Marshal()
	w := wire.NewWriter(16 + len(raw))
	w.PutByte(msgBlock)
	w.PutUint64(streamID)
	w.PutBytes(raw)
	return w.Bytes()
}

func encodeStreamEnd(streamID uint64, status fabric.BroadcastStatus, detail string) []byte {
	w := wire.NewWriter(16 + len(detail))
	w.PutByte(msgStreamEnd)
	w.PutUint64(streamID)
	w.PutUint16(uint16(status))
	w.PutString(detail)
	return w.Bytes()
}

func encodePing(nonce uint64) []byte {
	w := wire.NewWriter(16)
	w.PutByte(msgPing)
	w.PutUint64(nonce)
	return w.Bytes()
}

func encodePong(nonce uint64) []byte {
	w := wire.NewWriter(16)
	w.PutByte(msgPong)
	w.PutUint64(nonce)
	return w.Bytes()
}

// frame is one decoded protocol message (union of all bodies).
type frame struct {
	kind     byte
	id       uint64 // request id or stream id
	channel  string
	seek     fabric.SeekInfo
	envelope []byte
	block    *fabric.Block
	status   fabric.BroadcastStatus
	detail   string
}

func decodeFrame(payload []byte) (frame, error) {
	if len(payload) == 0 {
		return frame{}, ErrBadFrame
	}
	r := wire.NewReader(payload[1:])
	f := frame{kind: payload[0]}
	switch f.kind {
	case msgBroadcast:
		f.id = r.Uint64()
		f.envelope = r.Bytes()
	case msgDeliver:
		f.id = r.Uint64()
		f.channel = r.String()
		f.seek = fabric.ReadSeekInfo(r)
	case msgCancel, msgPing, msgPong:
		f.id = r.Uint64()
	case msgAck, msgStreamEnd:
		f.id = r.Uint64()
		f.status = fabric.BroadcastStatus(r.Uint16())
		f.detail = r.String()
	case msgBlock:
		f.id = r.Uint64()
		raw := r.Bytes()
		if r.Err() == nil {
			b, err := fabric.UnmarshalBlock(raw)
			if err != nil {
				return frame{}, fmt.Errorf("%w: %v", ErrBadFrame, err)
			}
			f.block = b
		}
	default:
		return frame{}, fmt.Errorf("%w: unknown type %d", ErrBadFrame, f.kind)
	}
	if err := r.Finish(); err != nil {
		return frame{}, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	return f, nil
}
