package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// writerPayload is message i of sender s: its index, then a sender-specific
// fill, 8 to about 3000 bytes long.
func writerPayload(s, i int) []byte {
	p := bytes.Repeat([]byte{byte(s + i)}, 8+(i*37)%3000)
	binary.BigEndian.PutUint32(p, uint32(i))
	return p
}

// countingConn counts the Writes made on a connection.
type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// Frames from concurrent senders arrive whole and, per sender, in order,
// though the writer frames whatever accumulated while it was writing into
// one buffer. Nothing is read until every message is queued, so the writer
// is blocked on its first Write while the rest accumulates.
func TestTCPWriterCoalescesConcurrentSends(t *testing.T) {
	client, server := net.Pipe()
	var writes atomic.Int64
	w := newTCPWriter(func() (net.Conn, error) {
		return &countingConn{Conn: client, writes: &writes}, nil
	}, time.Millisecond)
	defer w.stop()
	defer server.Close() // first: fails a Write the test no longer reads

	const senders, each = 4, 500
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				w.enqueue(Message{From: "a", To: "b", Type: uint16(s), Payload: writerPayload(s, i)})
			}
		}(s)
	}
	wg.Wait()

	fr := newFrameReader(server)
	next := make([]int, senders)
	for n := 0; n < senders*each; n++ {
		m, err := fr.readFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", n, err)
		}
		s := int(m.Type)
		if s >= senders || m.From != "a" || m.To != "b" {
			t.Fatalf("frame %d: type %d from %q to %q", n, m.Type, m.From, m.To)
		}
		if !bytes.Equal(m.Payload, writerPayload(s, next[s])) {
			t.Fatalf("frame %d: sender %d's message %d arrived damaged or out of order (index %d)",
				n, s, next[s], binary.BigEndian.Uint32(m.Payload))
		}
		next[s]++
	}
	if got := writes.Load(); got > senders*each/100 {
		t.Fatalf("%d messages took %d Writes", senders*each, got)
	}
}

// scriptConn is a connection whose every Write the test sees and answers,
// until stop closes.
type scriptConn struct {
	net.Conn // nil: the writer only writes and closes
	writes   chan []byte
	answers  chan error
	stop     chan struct{}
}

func newScriptConn(stop chan struct{}) *scriptConn {
	return &scriptConn{writes: make(chan []byte), answers: make(chan error), stop: stop}
}

func (c *scriptConn) Write(p []byte) (int, error) {
	select {
	case c.writes <- bytes.Clone(p):
	case <-c.stop:
		return 0, net.ErrClosed
	}
	select {
	case err := <-c.answers:
		if err != nil {
			return 0, err
		}
		return len(p), nil
	case <-c.stop:
		return 0, net.ErrClosed
	}
}

func (c *scriptConn) Close() error { return nil }

// nextWrite returns the types of the frames in the connection's next Write,
// which is still waiting for its answer.
func (c *scriptConn) nextWrite(t *testing.T) []uint16 {
	t.Helper()
	select {
	case b := <-c.writes:
		fr := newFrameReader(bytes.NewReader(b))
		var types []uint16
		for {
			m, err := fr.readFrame()
			if errors.Is(err, io.EOF) {
				return types
			}
			if err != nil {
				t.Fatalf("a Write held a torn frame: %v", err)
			}
			types = append(types, m.Type)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the writer made no Write")
		return nil
	}
}

// The head of the queue survives failed dials, everything queued meanwhile
// goes out in the first Write, and a failed Write loses that batch only:
// what was queued while it was being written goes out on the next
// connection.
func TestTCPWriterKeepsQueueAcrossDialAndWriteFailures(t *testing.T) {
	stop, queued := make(chan struct{}), make(chan struct{})
	first, second := newScriptConn(stop), newScriptConn(stop)
	var dials atomic.Int32
	w := newTCPWriter(func() (net.Conn, error) {
		select {
		case <-queued:
		case <-stop:
			return nil, net.ErrClosed
		}
		switch n := dials.Add(1); {
		case n <= 3:
			return nil, errors.New("connection refused")
		case n == 4:
			return first, nil
		default:
			return second, nil
		}
	}, time.Millisecond)
	defer w.stop()
	defer close(stop) // first: releases a writer the test no longer answers
	send := func(types ...uint16) {
		for _, typ := range types {
			w.enqueue(Message{From: "a", To: "b", Type: typ, Payload: []byte{byte(typ)}})
		}
	}

	send(0, 1, 2)
	close(queued)
	if got := first.nextWrite(t); !slices.Equal(got, []uint16{0, 1, 2}) {
		t.Fatalf("first Write after three failed dials carried %v, want [0 1 2]", got)
	}
	if n := dials.Load(); n != 4 {
		t.Fatalf("%d dials before the first Write, want 4", n)
	}
	first.answers <- nil

	send(3)
	if got := first.nextWrite(t); !slices.Equal(got, []uint16{3}) {
		t.Fatalf("second Write carried %v, want [3]", got)
	}
	send(4, 5) // queued while message 3 is being written
	first.answers <- errors.New("connection reset")

	if got := second.nextWrite(t); !slices.Equal(got, []uint16{4, 5}) {
		t.Fatalf("the Write on the new connection carried %v, want [4 5]", got)
	}
	second.answers <- nil
}

// A frame read off a connection allocates only itself: the sender's and
// receiver's addresses repeat, and the reader keeps the previous strings.
func TestReadFrameReusesAddresses(t *testing.T) {
	m := benchMessage(512)
	fr := newFrameReader(&replayConn{frame: appendFrame(nil, m)})
	if got := testing.AllocsPerRun(100, func() {
		if _, err := fr.readFrame(); err != nil {
			t.Fatal(err)
		}
	}); got > 1 {
		t.Fatalf("readFrame: %.0f allocations, want 1 (the frame)", got)
	}
	got, err := fr.readFrame()
	if err != nil || got.From != m.From || got.To != m.To || !bytes.Equal(got.Payload, m.Payload) {
		t.Fatalf("readFrame returned %+v, %v", got, err)
	}
}
