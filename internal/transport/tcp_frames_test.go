package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"testing/iotest"
	"time"
)

// A connection carries one sender's messages: once its first frame named
// a sender, a frame naming another closes the connection, and neither it
// nor anything after it is delivered, even when the first sender's name
// comes back.
func TestTCPConnectionPinsItsSender(t *testing.T) {
	server, err := NewTCPTransport(TCPConfig{Addr: "s", Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	defer server.Close()
	conn, err := net.Dial("tcp", server.ListenAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var frames []byte
	for i, from := range []Addr{"a", "b", "a"} {
		frames = appendFrame(frames, Message{From: from, To: "s", Type: uint16(i), Payload: []byte{byte(i)}})
	}
	if _, err := conn.Write(frames); err != nil {
		t.Fatal(err)
	}
	if m := recvOne(t, server, 5*time.Second); m.From != "a" || m.Type != 0 {
		t.Fatalf("first frame arrived as %+v", m)
	}
	select {
	case m := <-server.Inbox():
		t.Fatalf("delivered %+v after the sender changed", m)
	case <-time.After(200 * time.Millisecond):
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("the connection stayed open after a second sender's frame (%v)", err)
	}
}

// FuzzTCPFrames reads an arbitrary byte stream the way a node reads a
// peer's connection, whole and a byte at a time. Properties: no panic; both
// readings yield the same messages; every message names the sender of the
// first; every payload is a capped view inside its own frame; and a message
// built from the input reads back equal after its frame. Seeds:
// testdata/fuzz/FuzzTCPFrames.
func FuzzTCPFrames(f *testing.F) {
	f.Fuzz(func(t *testing.T, stream []byte, typ uint16, from, to string) {
		whole, chunked := newFrameReader(bytes.NewReader(stream)), newFrameReader(iotest.OneByteReader(bytes.NewReader(stream)))
		var first Addr
		for n := 0; ; n++ {
			m, err := whole.readFrame()
			again, errAgain := chunked.readFrame()
			if (err == nil) != (errAgain == nil) {
				t.Fatalf("frame %d: read whole %v, a byte at a time %v", n, err, errAgain)
			}
			if err != nil {
				break
			}
			if m.From != again.From || m.To != again.To || m.Type != again.Type || !bytes.Equal(m.Payload, again.Payload) {
				t.Fatalf("frame %d: read whole %+v, a byte at a time %+v", n, m, again)
			}
			if n == 0 {
				first = m.From
			} else if m.From != first {
				t.Fatalf("frame %d from %q delivered after one from %q", n, m.From, first)
			}
			if cap(m.Payload) != len(m.Payload) {
				t.Fatalf("frame %d: payload of %d bytes reaches %d bytes past it", n, len(m.Payload), cap(m.Payload)-len(m.Payload))
			}
		}
		if len(from) > 1000 || len(to) > 1000 {
			return
		}
		in := Message{From: Addr(from), To: Addr(to), Type: typ, Payload: stream}
		frame := appendFrame(nil, in)
		if got := binary.BigEndian.Uint32(frame); int(got) != len(frame)-4 {
			t.Fatalf("length prefix %d for a %d-byte frame", got, len(frame)-4)
		}
		out, err := newFrameReader(bytes.NewReader(frame)).readFrame()
		if err != nil || out.From != in.From || out.To != in.To || out.Type != in.Type || !bytes.Equal(out.Payload, in.Payload) {
			t.Fatalf("%+v read back as %+v (%v)", in, out, err)
		}
	})
}
