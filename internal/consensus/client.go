package consensus

import (
	"errors"
	"sync"
	"time"

	"repro/internal/transport"
)

// ErrClientClosed is returned by submissions made after the client was closed.
var ErrClientClosed = errors.New("consensus client closed")

// ClientConfig parameterizes a consensus client (proxy).
type ClientConfig struct {
	// Replicas is the replication group the client talks to.
	Replicas []ReplicaID
}

// Client is the BFT-SMaRt client proxy in its asynchronous mode: it
// broadcasts requests to every replica and waits for nothing ("the proxy...
// issues an asynchronous invocation request... ensuring it does not block
// waiting for replies", Section 5.1). Replicas send clients no replies; the
// ordering service returns decided operations as blocks.
//
// Submitting a request only queues it: one sender goroutine takes the whole
// queue each time it wakes and sends it as one request frame per replica
// (see EncodeRequest), so requests submitted while the previous frame was
// being sent travel together and a lone request on an idle client leaves at
// once. There is no timer and nothing to tune.
type Client struct {
	conn  transport.Conn
	id    string
	addrs []transport.Addr // of cfg.Replicas

	mu      sync.Mutex
	nextSeq uint64
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

// NewClient attaches a client proxy to a transport endpoint. The endpoint's
// address is the client's identity: every request it sends carries it.
func NewClient(conn transport.Conn, cfg ClientConfig) (*Client, error) {
	if conn == nil {
		return nil, errors.New("consensus client: nil connection")
	}
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("consensus client: empty replica set")
	}
	c := &Client{
		conn:   conn,
		id:     string(conn.Addr()),
		notify: make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	// Sequence numbers start at a per-session base (wall-clock nanos) so a
	// client that restarts under the same identity never reuses sequences
	// its previous incarnation already had executed: with durable replicas
	// the old dedup state survives crashes, and seqs restarting at 1 would
	// be swallowed as duplicates. A replica records the executed seqs above
	// its floor as runs and keeps the floor within windowCap of the highest
	// (see clientDedup), so the jump is one run until windowCap requests
	// executed, and it moves only this client's floor: a replica pools a
	// frame only from the endpoint whose address the frame names. Caveat:
	// this relies on the client host's clock not stepping backwards across
	// restarts; a client restarted under an earlier clock (VM snapshot
	// restore) must take a new identity.
	c.nextSeq = uint64(time.Now().UnixNano())
	for _, id := range cfg.Replicas {
		c.addrs = append(c.addrs, id.Addr())
	}
	c.wg.Add(2)
	go c.drainLoop()
	go c.sendLoop()
	return c, nil
}

// ID returns the client identity (its transport address).
func (c *Client) ID() string { return c.id }

// Invoke submits an operation for total ordering (blocks come back through
// the block dissemination path). The request is queued for the client's
// sender, which encodes op later: op must not change after the call.
// Numbering and queueing under one lock keep the queue in sequence order.
func (c *Client) Invoke(op []byte) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClientClosed
	}
	c.nextSeq++
	c.queue = append(c.queue, queuedRequest{seq: c.nextSeq, op: op})
	c.mu.Unlock()
	select {
	case c.notify <- struct{}{}:
	default:
	}
	return nil
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

// drainLoop reads and discards the client's inbox. Replicas send clients
// nothing, but transport mailboxes are unbounded: an endpoint nobody reads
// would grow with whatever a faulty peer sends to it.
func (c *Client) drainLoop() {
	defer c.wg.Done()
	for {
		select {
		case <-c.done:
			return
		case _, ok := <-c.conn.Inbox():
			if !ok {
				return
			}
		}
	}
}

// Close shuts the client down once the requests already submitted are
// sent. Later submissions fail with ErrClientClosed.
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
