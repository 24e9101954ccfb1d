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
	"net"
	"sync"

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
	ErrFrameTooLarge = wire.ErrFrameTooLarge
	ErrBadFrame      = errors.New("clientapi: malformed frame")
)

// frameConn is one end of a connection: the socket, and the framing buffer
// every frame written to it is appended to and leaves from in one Write.
// The buffer is reused across writes; the socket copies what it is given.
type frameConn struct {
	conn    net.Conn
	writeMu sync.Mutex  // serializes frames from concurrent writers
	out     wire.Writer // framing buffer, guarded by writeMu
}

// retainedFrameCap bounds the framing buffer a connection keeps between
// writes; a larger write's buffer is released after it.
const retainedFrameCap = 1 << 20

// begin locks the connection for writing and returns its emptied framing
// buffer; flush writes what was framed into it and unlocks.
func (c *frameConn) begin() *wire.Writer {
	c.writeMu.Lock()
	c.out.Reset()
	return &c.out
}

func (c *frameConn) flush() error {
	_, err := c.conn.Write(c.out.Bytes())
	if cap(c.out.Bytes()) > retainedFrameCap {
		c.out = wire.Writer{}
	}
	c.writeMu.Unlock()
	return err
}

// sendID writes one cancel, ping or pong frame.
func (c *frameConn) sendID(kind byte, id uint64) error {
	putID(c.begin(), kind, id)
	return c.flush()
}

// sendStatus writes one ack or stream-end frame.
func (c *frameConn) sendStatus(kind byte, id uint64, status fabric.BroadcastStatus, detail string) error {
	putStatus(c.begin(), kind, id, status, detail)
	return c.flush()
}

// ---- frames ------------------------------------------------------------

// Each put function appends one whole frame, length prefix included.

// openFrame starts a frame of the given type; closeFrame fills in its
// length once the body is written.
func openFrame(w *wire.Writer, kind byte) int {
	start := w.Len()
	w.PutUint32(0)
	w.PutByte(kind)
	return start
}

func closeFrame(w *wire.Writer, start int) {
	binary.BigEndian.PutUint32(w.Bytes()[start:], uint32(w.Len()-start-4))
}

func putBroadcast(w *wire.Writer, id uint64, env *fabric.Envelope) {
	start := openFrame(w, msgBroadcast)
	w.PutUint64(id)
	w.PutUvarint(uint64(env.MarshaledSize()))
	env.MarshalInto(w)
	closeFrame(w, start)
}

func putDeliver(w *wire.Writer, streamID uint64, channel string, seek fabric.SeekInfo) {
	start := openFrame(w, msgDeliver)
	w.PutUint64(streamID)
	w.PutString(channel)
	seek.MarshalInto(w)
	closeFrame(w, start)
}

// putID appends a cancel, ping or pong frame.
func putID(w *wire.Writer, kind byte, id uint64) {
	start := openFrame(w, kind)
	w.PutUint64(id)
	closeFrame(w, start)
}

// putStatus appends an ack or stream-end frame.
func putStatus(w *wire.Writer, kind byte, id uint64, status fabric.BroadcastStatus, detail string) {
	start := openFrame(w, kind)
	w.PutUint64(id)
	w.PutUint16(uint16(status))
	w.PutString(detail)
	closeFrame(w, start)
}

func putBlock(w *wire.Writer, streamID uint64, block *fabric.Block) {
	start := openFrame(w, msgBlock)
	w.PutUint64(streamID)
	w.PutUvarint(uint64(block.MarshaledSize()))
	block.MarshalInto(w)
	closeFrame(w, start)
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
