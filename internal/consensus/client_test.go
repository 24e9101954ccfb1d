package consensus

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// gateConn records what a client sends. Its first Send blocks until the
// test opens the gate, so requests submitted meanwhile queue behind it.
type gateConn struct {
	entered chan struct{} // closed when the first Send starts
	gate    chan struct{} // the first Send returns once this is closed
	sentCh  chan struct{} // one token per Send; buffered past any test's sends

	mu   sync.Mutex
	sent []transport.Message
}

func newGateConn(blockFirst bool) *gateConn {
	c := &gateConn{entered: make(chan struct{}), gate: make(chan struct{}), sentCh: make(chan struct{}, 1<<12)}
	if !blockFirst {
		close(c.gate)
	}
	return c
}

func (c *gateConn) Addr() transport.Addr { return "client" }
func (c *gateConn) Send(to transport.Addr, msgType uint16, payload []byte) {
	c.mu.Lock()
	first := len(c.sent) == 0
	c.sent = append(c.sent, transport.Message{From: "client", To: to, Type: msgType, Payload: payload})
	c.mu.Unlock()
	if first {
		close(c.entered)
		<-c.gate
	}
	c.sentCh <- struct{}{}
}
func (c *gateConn) Inbox() <-chan transport.Message { return nil }
func (c *gateConn) Close() error                    { return nil }

// await waits for n more sends.
func (c *gateConn) await(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-c.sentCh:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d sends arrived", i, n)
		}
	}
}

func (c *gateConn) messages() []transport.Message {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]transport.Message(nil), c.sent...)
}

// frameRequests decodes a request frame the way a replica walks it.
func frameRequests(t *testing.T, frame []byte) []request {
	t.Helper()
	r := wire.NewReader(frame)
	client, first, n, err := readFrameHeader(r)
	if err != nil {
		t.Fatalf("frame: %v", err)
	}
	out := make([]request, n)
	for i := range out {
		out[i] = request{ClientID: string(client), Seq: first + uint64(i), Op: r.Bytes()}
	}
	if err := r.Finish(); err != nil {
		t.Fatalf("frame: %v", err)
	}
	return out
}

func newGateClient(t *testing.T, conn *gateConn) *Client {
	t.Helper()
	c, err := NewClient(conn, ClientConfig{Replicas: ids(4)})
	if err != nil {
		t.Fatalf("new client: %v", err)
	}
	t.Cleanup(func() {
		select {
		case <-conn.gate:
		default:
			close(conn.gate)
		}
		c.Close()
	})
	return c
}

// checkFrames checks that sends carry the ops in order, each frame sent to
// every replica as one payload, and returns the frames.
func checkFrames(t *testing.T, sent []transport.Message, ops [][]byte) [][]byte {
	t.Helper()
	if len(sent)%4 != 0 {
		t.Fatalf("%d sends, not a whole number of frames to 4 replicas", len(sent))
	}
	var frames [][]byte
	var got []request
	for i := 0; i < len(sent); i += 4 {
		frame := sent[i].Payload
		for j, m := range sent[i : i+4] {
			if m.Type != msgRequest || m.To != ReplicaID(j).Addr() || !bytes.Equal(m.Payload, frame) {
				t.Fatalf("send %d: type %d to %s, not frame %d to replica %d", i+j, m.Type, m.To, i/4, j)
			}
		}
		frames = append(frames, frame)
		got = append(got, frameRequests(t, frame)...)
	}
	if len(got) != len(ops) {
		t.Fatalf("the frames carry %d requests, want %d", len(got), len(ops))
	}
	for i, rq := range got {
		if rq.ClientID != "client" || !bytes.Equal(rq.Op, ops[i]) || (i > 0 && rq.Seq != got[i-1].Seq+1) {
			t.Fatalf("request %d is (%s, %d, %q), want op %q in call order", i, rq.ClientID, rq.Seq, rq.Op, ops[i])
		}
	}
	return frames
}

// Requests submitted while the sender is busy travel together: with the
// first frame's Send blocked, k Invokes queue, and once it returns they
// leave as one k-entry frame per replica, in call order.
func TestClientQueuedRequestsLeaveAsOneFrame(t *testing.T) {
	const k = 7
	conn := newGateConn(true)
	c := newGateClient(t, conn)
	ops := [][]byte{[]byte("first")}
	if err := c.Invoke(ops[0]); err != nil {
		t.Fatalf("invoke: %v", err)
	}
	<-conn.entered
	for i := 0; i < k; i++ {
		ops = append(ops, []byte(fmt.Sprintf("queued-%d", i)))
		if err := c.Invoke(ops[i+1]); err != nil {
			t.Fatalf("invoke: %v", err)
		}
	}
	close(conn.gate)
	conn.await(t, 8)
	frames := checkFrames(t, conn.messages(), ops)
	if len(frames) != 2 || len(frameRequests(t, frames[1])) != k {
		t.Fatalf("%d frames, want the first request alone and then one frame of %d", len(frames), k)
	}
}

// A lone request on an idle client leaves at once, as a one-entry frame:
// nothing waits for a second request or a timer.
func TestClientLoneInvokeLeavesAtOnce(t *testing.T) {
	conn := newGateConn(false)
	c := newGateClient(t, conn)
	for i := 0; i < 3; i++ {
		op := []byte(fmt.Sprintf("lone-%d", i))
		if err := c.Invoke(op); err != nil {
			t.Fatalf("invoke: %v", err)
		}
		conn.await(t, 4)
		sent := conn.messages()
		checkFrames(t, sent[len(sent)-4:], [][]byte{op})
	}
}

// A queue larger than maxRequestFrameBytes leaves as several frames, each
// within the bound, together carrying every request in order.
func TestClientSplitsQueueAtFrameCap(t *testing.T) {
	conn := newGateConn(true)
	c := newGateClient(t, conn)
	first := []byte("first")
	if err := c.Invoke(first); err != nil {
		t.Fatalf("invoke: %v", err)
	}
	<-conn.entered
	ops := [][]byte{first}
	for i := 0; i < 7; i++ {
		op := bytes.Repeat([]byte{byte('a' + i)}, 300<<10)
		ops = append(ops, op)
		if err := c.Invoke(op); err != nil {
			t.Fatalf("invoke: %v", err)
		}
	}
	close(conn.gate)
	// 2.1 MiB of requests: the first alone, then frames of at most 3.
	conn.await(t, 4*4)
	frames := checkFrames(t, conn.messages(), ops)
	for i, f := range frames {
		if len(f) > maxRequestFrameBytes {
			t.Fatalf("frame %d is %d bytes, over the %d-byte bound", i, len(f), maxRequestFrameBytes)
		}
	}
}

// The frame encoder sizes exactly: the buffer it allocates is the frame.
func TestRequestFrameIsSizedExactly(t *testing.T) {
	for _, k := range []int{1, 2, 130} {
		frame, n := encodeRequestFrame("client", queuedOps(k))
		if n != k || len(frame) != cap(frame) {
			t.Fatalf("%d requests: took %d into a frame of len %d, cap %d", k, n, len(frame), cap(frame))
		}
	}
}

// Close sends what was queued before it, then stops the sender: Close
// returns (it waits for the sender goroutine) and later submissions fail.
func TestClientCloseStopsSender(t *testing.T) {
	conn := newGateConn(false)
	c, err := NewClient(conn, ClientConfig{Replicas: ids(4)})
	if err != nil {
		t.Fatalf("new client: %v", err)
	}
	var ops [][]byte
	for i := 0; i < 20; i++ {
		ops = append(ops, []byte(fmt.Sprintf("op-%d", i)))
		if err := c.Invoke(ops[i]); err != nil {
			t.Fatalf("invoke: %v", err)
		}
	}
	closed := make(chan struct{})
	go func() {
		c.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return: the sender goroutine is still running")
	}
	checkFrames(t, conn.messages(), ops)
	if err := c.Invoke([]byte("late")); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Invoke after Close: %v, want ErrClientClosed", err)
	}
}

// Submissions from several goroutines at once: every request leaves
// exactly once, and sequence numbers rise across the whole stream of
// frames, because a request is numbered and queued under one lock and one
// sender sends the queue in order.
func TestClientConcurrentSubmissions(t *testing.T) {
	const workers, each = 4, 50
	conn := newGateConn(false)
	c := newGateClient(t, conn)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := c.Invoke([]byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Errorf("invoke: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	c.Close()
	seen := make(map[string]bool)
	var last uint64
	sent := conn.messages()
	for i := 0; i < len(sent); i += 4 {
		for _, rq := range frameRequests(t, sent[i].Payload) {
			if rq.Seq <= last || seen[string(rq.Op)] {
				t.Fatalf("request %q (seq %d) after seq %d: out of order or repeated", rq.Op, rq.Seq, last)
			}
			last = rq.Seq
			seen[string(rq.Op)] = true
		}
	}
	if len(seen) != workers*each {
		t.Fatalf("%d of %d requests left the client", len(seen), workers*each)
	}
}

// A request frame carries each operation with its length alone: the client
// id and the first sequence number travel once per frame. A frame of 36
// requests of 222-byte operations, the size of the ordering service's
// 200-byte envelopes, fits in 36 x 224 bytes and a 32-byte header (as a
// list of whole requests it took 244 bytes each), and each of four
// replicas pools all 36 under the frame's client with consecutive sequence
// numbers.
func TestRequestFrameCarriesOpsOnly(t *testing.T) {
	const k, opSize, first = 36, 222, 1<<62 + 5
	reqs := make([]queuedRequest, k)
	for i := range reqs {
		reqs[i] = queuedRequest{seq: first + uint64(i), op: bytes.Repeat([]byte{byte(i)}, opSize)}
	}
	frame, n := encodeRequestFrame("fe-client", reqs)
	if n != k || len(frame) > k*(opSize+2)+32 {
		t.Fatalf("%d requests of %d-byte operations took %d into a %d-byte frame, want %d in at most %d bytes",
			k, opSize, n, len(frame), k, k*(opSize+2)+32)
	}
	for id := ReplicaID(0); id < 4; id++ {
		f := newStandIn(t, id, Config{BatchSize: 4 * k})
		f.submit(frame)
		rec := f.r.clients["fe-client"]
		if rec == nil || rec.pending() != k {
			t.Fatalf("replica %d pooled %v of the frame's %d requests", id, rec, k)
		}
		for i, rq := range reqs {
			p := rec.find(rq.seq)
			if p == nil || p.req.ClientID != "fe-client" || p.req.Seq != first+uint64(i) || !bytes.Equal(p.req.Op, rq.op) {
				t.Fatalf("replica %d: request %d (seq %d) is not pooled as sent", id, i, rq.seq)
			}
		}
	}
}
