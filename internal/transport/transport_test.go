package transport

import (
	"bytes"
	"errors"
	stdnet "net"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func recvOne(t *testing.T, c Conn, within time.Duration) Message {
	t.Helper()
	select {
	case m, ok := <-c.Inbox():
		if !ok {
			t.Fatal("inbox closed")
		}
		return m
	case <-time.After(within):
		t.Fatal("timed out waiting for message")
	}
	return Message{}
}

func TestInProcBasicDelivery(t *testing.T) {
	net := NewInProcNetwork(InProcConfig{})
	defer net.Close()

	a, err := net.Join("a")
	if err != nil {
		t.Fatalf("join a: %v", err)
	}
	b, err := net.Join("b")
	if err != nil {
		t.Fatalf("join b: %v", err)
	}

	a.Send("b", 7, []byte("hello"))
	m := recvOne(t, b, time.Second)
	if m.From != "a" || m.To != "b" || m.Type != 7 || string(m.Payload) != "hello" {
		t.Fatalf("unexpected message: %+v", m)
	}
}

func TestInProcDuplicateJoin(t *testing.T) {
	net := NewInProcNetwork(InProcConfig{})
	defer net.Close()
	if _, err := net.Join("a"); err != nil {
		t.Fatalf("join: %v", err)
	}
	if _, err := net.Join("a"); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate join: got %v, want ErrDuplicate", err)
	}
}

func TestInProcUnknownDestinationDropped(t *testing.T) {
	net := NewInProcNetwork(InProcConfig{})
	defer net.Close()
	a, err := net.Join("a")
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	a.Send("ghost", 1, nil) // must not panic or block
}

func TestInProcOrderPreservedPerLink(t *testing.T) {
	net := NewInProcNetwork(InProcConfig{})
	defer net.Close()
	a, _ := net.Join("a")
	b, _ := net.Join("b")

	const n = 200
	for i := 0; i < n; i++ {
		a.Send("b", uint16(i), nil)
	}
	for i := 0; i < n; i++ {
		m := recvOne(t, b, time.Second)
		if m.Type != uint16(i) {
			t.Fatalf("message %d arrived out of order (type %d)", i, m.Type)
		}
	}
}

func TestInProcLatency(t *testing.T) {
	const delay = 50 * time.Millisecond
	net := NewInProcNetwork(InProcConfig{Latency: FixedLatency(delay)})
	defer net.Close()
	a, _ := net.Join("a")
	b, _ := net.Join("b")

	start := time.Now()
	a.Send("b", 1, nil)
	recvOne(t, b, time.Second)
	if elapsed := time.Since(start); elapsed < delay || elapsed > delay+slack(3*time.Millisecond) {
		t.Fatalf("message arrived after %v, want %v .. %v", elapsed, delay, delay+slack(3*time.Millisecond))
	}
}

func TestInProcEgressBandwidth(t *testing.T) {
	// 1 MB/s egress: a 100 KB payload takes 100 ms to leave, not less and
	// not much more.
	net := NewInProcNetwork(InProcConfig{EgressBytesPerSec: 1_000_000})
	defer net.Close()
	a, _ := net.Join("a")
	b, _ := net.Join("b")

	payload := make([]byte, 100_000)
	start := time.Now()
	a.Send("b", 1, payload)
	recvOne(t, b, 5*time.Second)
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond || elapsed > 100*time.Millisecond+slack(15*time.Millisecond) {
		t.Fatalf("100 kB at 1 MB/s took %v, want 100ms .. %v", elapsed, 100*time.Millisecond+slack(15*time.Millisecond))
	}
}

func TestInProcEgressSerializesAcrossReceivers(t *testing.T) {
	// Sending the same 50 KB to 4 receivers at 1 MB/s must take >= ~200 ms
	// in total because the sender's NIC is serialized.
	net := NewInProcNetwork(InProcConfig{EgressBytesPerSec: 1_000_000})
	defer net.Close()
	a, _ := net.Join("a")
	receivers := make([]Conn, 4)
	for i := range receivers {
		c, err := net.Join(Addr(string(rune('r' + i))))
		if err != nil {
			t.Fatalf("join receiver: %v", err)
		}
		receivers[i] = c
	}
	payload := make([]byte, 50_000)
	start := time.Now()
	for i := range receivers {
		a.Send(receivers[i].Addr(), 1, payload)
	}
	for _, r := range receivers {
		recvOne(t, r, 5*time.Second)
	}
	if elapsed := time.Since(start); elapsed < 180*time.Millisecond {
		t.Fatalf("egress not serialized across receivers: %v", elapsed)
	}
}

func TestInProcFilterAndHeal(t *testing.T) {
	net := NewInProcNetwork(InProcConfig{})
	defer net.Close()
	a, _ := net.Join("a")
	b, _ := net.Join("b")

	net.SetFilter(func(m Message) bool { return false })
	a.Send("b", 1, nil)
	select {
	case <-b.Inbox():
		t.Fatal("filtered message delivered")
	case <-time.After(50 * time.Millisecond):
	}

	net.Heal()
	a.Send("b", 2, nil)
	m := recvOne(t, b, time.Second)
	if m.Type != 2 {
		t.Fatalf("wrong message after heal: %+v", m)
	}
}

func TestInProcPartition(t *testing.T) {
	net := NewInProcNetwork(InProcConfig{})
	defer net.Close()
	a, _ := net.Join("a")
	b, _ := net.Join("b")
	c, _ := net.Join("c")

	net.Partition([]Addr{"a"}, []Addr{"b"})
	a.Send("b", 1, nil)
	a.Send("c", 2, nil)
	m := recvOne(t, c, time.Second)
	if m.Type != 2 {
		t.Fatalf("cross-partition leak or wrong message: %+v", m)
	}
	select {
	case <-b.Inbox():
		t.Fatal("partitioned message delivered")
	case <-time.After(50 * time.Millisecond):
	}
	_ = a
}

func TestInProcDisconnect(t *testing.T) {
	net := NewInProcNetwork(InProcConfig{})
	defer net.Close()
	a, _ := net.Join("a")
	b, _ := net.Join("b")

	net.Disconnect("b")
	a.Send("b", 1, nil) // dropped silently
	if _, ok := <-b.Inbox(); ok {
		t.Fatal("disconnected inbox still open")
	}

	// The address becomes reusable.
	if _, err := net.Join("b"); err != nil {
		t.Fatalf("rejoin after disconnect: %v", err)
	}
}

func TestInProcCloseIdempotent(t *testing.T) {
	net := NewInProcNetwork(InProcConfig{})
	a, _ := net.Join("a")
	if err := net.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := net.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := net.Join("x"); !errors.Is(err, ErrClosed) {
		t.Fatalf("join after close: got %v, want ErrClosed", err)
	}
	a.Send("a", 1, nil) // must not panic after close
}

func TestInProcConcurrentSenders(t *testing.T) {
	net := NewInProcNetwork(InProcConfig{})
	defer net.Close()
	dst, _ := net.Join("dst")

	const senders, each = 8, 50
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		conn, err := net.Join(Addr(string(rune('A' + i))))
		if err != nil {
			t.Fatalf("join sender %d: %v", i, err)
		}
		wg.Add(1)
		go func(c Conn) {
			defer wg.Done()
			for j := 0; j < each; j++ {
				c.Send("dst", 1, []byte{byte(j)})
			}
		}(conn)
	}
	wg.Wait()
	for i := 0; i < senders*each; i++ {
		recvOne(t, dst, time.Second)
	}
}

func TestMessageSizeProperty(t *testing.T) {
	f := func(payload []byte, from, to string) bool {
		m := Message{From: Addr(from), To: Addr(to), Payload: payload}
		return m.Size() >= len(payload)+wireOverheadBytes
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	server, err := NewTCPTransport(TCPConfig{Addr: "server", Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	defer server.Close()

	client, err := NewTCPTransport(TCPConfig{
		Addr:   "client",
		Listen: "127.0.0.1:0",
		Peers:  map[Addr]string{"server": server.ListenAddr()},
	})
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	defer client.Close()

	payload := []byte("over the wire")
	client.Send("server", 42, payload)
	m := recvOne(t, server, 5*time.Second)
	if m.From != "client" || m.Type != 42 || string(m.Payload) != string(payload) {
		t.Fatalf("unexpected frame: %+v", m)
	}
}

func TestTCPBidirectional(t *testing.T) {
	a, err := NewTCPTransport(TCPConfig{Addr: "a", Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("a: %v", err)
	}
	defer a.Close()
	b, err := NewTCPTransport(TCPConfig{
		Addr:   "b",
		Listen: "127.0.0.1:0",
		Peers:  map[Addr]string{"a": a.ListenAddr()},
	})
	if err != nil {
		t.Fatalf("b: %v", err)
	}
	defer b.Close()
	// Late peer registration direction: a needs b's address too.
	a.SetPeers(map[Addr]string{"b": b.ListenAddr()})

	b.Send("a", 1, []byte("ping"))
	if m := recvOne(t, a, 5*time.Second); string(m.Payload) != "ping" {
		t.Fatalf("want ping, got %+v", m)
	}
	a.Send("b", 2, []byte("pong"))
	if m := recvOne(t, b, 5*time.Second); string(m.Payload) != "pong" {
		t.Fatalf("want pong, got %+v", m)
	}
}

func TestTCPUnknownPeerDropped(t *testing.T) {
	a, err := NewTCPTransport(TCPConfig{Addr: "a", Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("a: %v", err)
	}
	defer a.Close()
	a.Send("nowhere", 1, nil) // no panic, no block
}

func TestTCPManyFrames(t *testing.T) {
	server, err := NewTCPTransport(TCPConfig{Addr: "s", Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	defer server.Close()
	client, err := NewTCPTransport(TCPConfig{
		Addr:  "c",
		Peers: map[Addr]string{"s": server.ListenAddr()},
	})
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	defer client.Close()

	const n = 100
	for i := 0; i < n; i++ {
		client.Send("s", uint16(i), []byte{byte(i)})
	}
	for i := 0; i < n; i++ {
		m := recvOne(t, server, 5*time.Second)
		if m.Type != uint16(i) {
			t.Fatalf("frame %d out of order: %+v", i, m)
		}
	}
}

func TestFrameCodecProperty(t *testing.T) {
	f := func(msgType uint16, from, to string, payload []byte) bool {
		if len(from) > 1000 || len(to) > 1000 || len(payload) > 1<<16 {
			return true // keep the frames small
		}
		c1, c2 := stdnet.Pipe()
		defer c1.Close()
		defer c2.Close()
		in := Message{From: Addr(from), To: Addr(to), Type: msgType, Payload: payload}
		errCh := make(chan error, 1)
		go func() {
			_, err := c1.Write(appendFrame(nil, in))
			errCh <- err
		}()
		out, err := newFrameReader(c2).readFrame()
		if err != nil || <-errCh != nil {
			return false
		}
		return out.From == in.From && out.To == in.To && out.Type == in.Type &&
			string(out.Payload) == string(in.Payload)
	}
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// The ownership rule's teeth on the socket side: decoders above hold views
// into a received payload, so a payload must read the same after any number
// of later frames arrived on its connection. This goes red the day the
// reader recycles its buffers.
func TestTCPDeliveredPayloadIsNeverReused(t *testing.T) {
	server, err := NewTCPTransport(TCPConfig{Addr: "s", Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	defer server.Close()
	client, err := NewTCPTransport(TCPConfig{
		Addr:  "c",
		Peers: map[Addr]string{"s": server.ListenAddr()},
	})
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	defer client.Close()

	frame := func(i int) []byte { return bytes.Repeat([]byte{byte(i), byte(i >> 8)}, 1024) }
	client.Send("s", 0, frame(0))
	first := recvOne(t, server, 5*time.Second)
	for i := 1; i <= 1000; i++ {
		client.Send("s", uint16(i), frame(i))
	}
	for i := 1; i <= 1000; i++ {
		if m := recvOne(t, server, 5*time.Second); !bytes.Equal(m.Payload, frame(i)) {
			t.Fatalf("frame %d arrived damaged", i)
		}
	}
	if !bytes.Equal(first.Payload, frame(0)) || first.From != "c" {
		t.Fatal("a delivered payload changed while later frames arrived")
	}
}
