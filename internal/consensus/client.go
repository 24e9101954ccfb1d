package consensus

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/transport"
)

// ErrClientClosed is returned by calls issued after the client was closed.
var ErrClientClosed = errors.New("consensus client closed")

// ClientConfig parameterizes a consensus client (proxy).
type ClientConfig struct {
	// Replicas is the replication group the client talks to.
	Replicas []ReplicaID
	// F is the fault threshold; zero derives the maximum from len(Replicas).
	F int
}

// Client is the BFT-SMaRt client proxy: it broadcasts requests to every
// replica and, for synchronous calls, collects matching replies. The
// ordering-service frontend issues asynchronous invocations only ("the
// proxy... issues an asynchronous invocation request... ensuring it does
// not block waiting for replies", Section 5.1).
//
// Submitting a request only queues it: one sender goroutine takes the whole
// queue each time it wakes and sends it as one request frame per replica
// (see EncodeRequest), so requests submitted while the previous frame was
// being sent travel together and a lone request on an idle client leaves at
// once. There is no timer and nothing to tune.
type Client struct {
	cfg    ClientConfig
	conn   transport.Conn
	id     string
	addrs  []transport.Addr // of cfg.Replicas
	quorum int

	mu      sync.Mutex
	nextSeq uint64
	pending map[uint64]*clientCall
	// queue holds the requests submitted since the sender's last wake, in
	// sequence order.
	queue  []queuedRequest
	closed bool

	// spare is the queue's second buffer (sender-owned): the sender frames
	// one batch while submissions append to the other, and the two swap at
	// every wake. The same discipline as transport's tcpWriter queue: a
	// change to one belongs in the other.
	spare  []queuedRequest
	notify chan struct{} // capacity 1: the queue is not empty
	done   chan struct{}
	wg     sync.WaitGroup
}

// maxRetainedQueue bounds the spare queue buffer a client keeps between
// wakes, so one burst does not pin its buffer for the client's lifetime.
const maxRetainedQueue = 4096

type clientCall struct {
	votes map[cryptoutil.Digest]map[string]struct{} // result digest -> replica addrs
	ch    chan []byte                               // capacity 1: completion signal
}

// NewClient attaches a client proxy to a transport endpoint. The endpoint's
// address is the client's identity: replicas address replies to it.
func NewClient(conn transport.Conn, cfg ClientConfig) (*Client, error) {
	if conn == nil {
		return nil, errors.New("consensus client: nil connection")
	}
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("consensus client: empty replica set")
	}
	if cfg.F <= 0 {
		cfg.F = MaxFaults(len(cfg.Replicas))
	}
	c := &Client{
		cfg:     cfg,
		conn:    conn,
		id:      string(conn.Addr()),
		quorum:  cfg.F + 1,
		pending: make(map[uint64]*clientCall),
		notify:  make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	// Sequence numbers start at a per-session base (wall-clock nanos) so a
	// client that restarts under the same identity never reuses sequences
	// its previous incarnation already had executed — with durable replicas
	// the old dedup state survives crashes, and seqs restarting at 1 would
	// be swallowed as duplicates. The replica-side dedup floor jumps over
	// session-sized gaps (see clientDedup.compact). Caveat: this relies on
	// the client host's clock not stepping backwards across restarts; a
	// client restarted under an earlier clock (VM snapshot restore) must
	// take a new identity.
	c.nextSeq = uint64(time.Now().UnixNano())
	for _, id := range cfg.Replicas {
		c.addrs = append(c.addrs, id.Addr())
	}
	c.wg.Add(2)
	go c.receiveLoop()
	go c.sendLoop()
	return c, nil
}

// ID returns the client identity (its transport address).
func (c *Client) ID() string { return c.id }

// Invoke submits an operation for total ordering without waiting for
// replies (the ordering-service mode: blocks come back through the block
// dissemination path instead). The request is queued for the client's
// sender, which encodes op later: op must not change after the call.
func (c *Client) Invoke(op []byte) error {
	_, err := c.enqueue(op, nil)
	return err
}

// Call submits an operation and waits until f+1 replicas reply with
// identical results, returning that result. As with Invoke, op must not
// change after the call.
func (c *Client) Call(ctx context.Context, op []byte) ([]byte, error) {
	call := &clientCall{
		votes: make(map[cryptoutil.Digest]map[string]struct{}),
		ch:    make(chan []byte, 1),
	}
	seq, err := c.enqueue(op, call)
	if err != nil {
		return nil, err
	}
	defer func() {
		c.mu.Lock()
		delete(c.pending, seq)
		c.mu.Unlock()
	}()
	select {
	case result := <-call.ch:
		return result, nil
	case <-ctx.Done():
		return nil, fmt.Errorf("consensus call %d: %w", seq, ctx.Err())
	case <-c.done:
		return nil, ErrClientClosed
	}
}

// enqueue numbers an operation, registers call (if any) under that number
// and queues the request for the sender. Numbering and queueing under one
// lock keep the queue in sequence order.
func (c *Client) enqueue(op []byte, call *clientCall) (uint64, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, ErrClientClosed
	}
	c.nextSeq++
	seq := c.nextSeq
	if call != nil {
		c.pending[seq] = call
	}
	c.queue = append(c.queue, queuedRequest{seq: seq, op: op})
	c.mu.Unlock()
	select {
	case c.notify <- struct{}{}:
	default:
	}
	return seq, nil
}

// sendLoop is the client's one sender. After Close it sends what was
// queued before the close, then returns.
func (c *Client) sendLoop() {
	defer c.wg.Done()
	for {
		select {
		case <-c.notify:
			c.flush()
		case <-c.done:
			c.flush()
			return
		}
	}
}

// flush takes the whole queue and sends it to every replica: one frame
// while it fits in maxRequestFrameBytes, and each frame's one payload to
// all of them.
func (c *Client) flush() {
	c.mu.Lock()
	batch := c.queue
	c.queue = c.spare[:0]
	c.mu.Unlock()
	for rest := batch; len(rest) > 0; {
		frame, n := encodeRequestFrame(c.id, rest)
		for _, addr := range c.addrs {
			c.conn.Send(addr, msgRequest, frame)
		}
		rest = rest[n:]
	}
	// The spare must not keep the operations alive, nor a burst's buffer.
	clear(batch)
	if cap(batch) <= maxRetainedQueue {
		c.spare = batch[:0]
	} else {
		c.spare = nil
	}
}

func (c *Client) receiveLoop() {
	defer c.wg.Done()
	for {
		select {
		case <-c.done:
			return
		case m, ok := <-c.conn.Inbox():
			if !ok {
				return
			}
			if m.Type != msgReply {
				continue
			}
			reply, err := unmarshalReply(m.Payload)
			if err != nil || reply.ClientID != c.id {
				continue
			}
			c.onReply(string(m.From), reply)
		}
	}
}

func (c *Client) onReply(from string, reply *replyMsg) {
	c.mu.Lock()
	defer c.mu.Unlock()
	call, ok := c.pending[reply.ReqSeq]
	if !ok {
		return
	}
	d := cryptoutil.Hash(reply.Result)
	voters, ok := call.votes[d]
	if !ok {
		voters = make(map[string]struct{})
		call.votes[d] = voters
	}
	voters[from] = struct{}{}
	if len(voters) >= c.quorum {
		select {
		case call.ch <- reply.Result:
		default: // already completed
		}
	}
}

// Close shuts the client down once the requests already submitted are
// sent. In-flight Call invocations fail with ErrClientClosed.
func (c *Client) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	close(c.done)
	c.wg.Wait()
}
