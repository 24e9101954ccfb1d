package transport

import (
	"bytes"
	"net"
	"testing"
	"time"
)

// Microbenchmarks for TCP frame encode/decode: every consensus message
// and disseminated block crosses this path twice on a real deployment,
// so the framing allocations are hot-path allocations.

func benchMessage(payloadSize int) Message {
	return Message{
		From:    "node-0",
		To:      "node-1",
		Type:    7,
		Payload: make([]byte, payloadSize),
	}
}

// BenchmarkAppendFrameReused frames messages into a reused buffer — the
// tcpWriter hot path after the buffer-reuse change.
func BenchmarkAppendFrameReused(b *testing.B) {
	m := benchMessage(512)
	var buf []byte
	b.ReportAllocs()
	b.SetBytes(int64(len(m.Payload)))
	for i := 0; i < b.N; i++ {
		buf = appendFrame(buf[:0], m)
		if len(buf) == 0 {
			b.Fatal("empty frame")
		}
	}
}

// BenchmarkAppendFrameFresh is the per-message-allocation baseline the
// reuse replaces.
func BenchmarkAppendFrameFresh(b *testing.B) {
	m := benchMessage(512)
	b.ReportAllocs()
	b.SetBytes(int64(len(m.Payload)))
	for i := 0; i < b.N; i++ {
		if buf := appendFrame(nil, m); len(buf) == 0 {
			b.Fatal("empty frame")
		}
	}
}

// replayConn serves one preframed message repeatedly (net.Conn stub for
// decode benchmarks).
type replayConn struct {
	frame []byte
	r     bytes.Reader
}

func (c *replayConn) Read(p []byte) (int, error) {
	if c.r.Len() == 0 {
		c.r.Reset(c.frame)
	}
	return c.r.Read(p)
}
func (c *replayConn) Write(p []byte) (int, error)        { return len(p), nil }
func (c *replayConn) Close() error                       { return nil }
func (c *replayConn) LocalAddr() net.Addr                { return nil }
func (c *replayConn) RemoteAddr() net.Addr               { return nil }
func (c *replayConn) SetDeadline(t time.Time) error      { return nil }
func (c *replayConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *replayConn) SetWriteDeadline(t time.Time) error { return nil }

// BenchmarkReadFrame decodes framed messages back out (the payload copy
// is inherent: it escapes into the mailbox).
func BenchmarkReadFrame(b *testing.B) {
	m := benchMessage(512)
	fr := newFrameReader(&replayConn{frame: appendFrame(nil, m)})
	b.ReportAllocs()
	b.SetBytes(int64(len(m.Payload)))
	for i := 0; i < b.N; i++ {
		got, err := fr.readFrame()
		if err != nil || len(got.Payload) != len(m.Payload) {
			b.Fatalf("readFrame: %v", err)
		}
	}
}
