package consensus

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
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
	// Tentative selects WHEAT reply semantics: tentative executions force
	// clients to wait for ceil((n+f+1)/2) matching replies instead of f+1
	// (Section 4 of the paper).
	Tentative bool
}

// Client is the BFT-SMaRt client proxy: it broadcasts requests to every
// replica and, for synchronous calls, collects matching replies. The
// ordering-service frontend issues asynchronous invocations only ("the
// proxy... issues an asynchronous invocation request... ensuring it does
// not block waiting for replies", Section 5.1).
type Client struct {
	cfg     ClientConfig
	conn    transport.Conn
	id      string
	addrs   []transport.Addr // of cfg.Replicas
	nextSeq atomic.Uint64
	quorum  int

	mu      sync.Mutex
	pending map[uint64]*clientCall
	closed  bool

	done chan struct{}
	wg   sync.WaitGroup
}

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
	quorum := cfg.F + 1
	if cfg.Tentative {
		quorum = QuorumSize(len(cfg.Replicas), cfg.F)
	}
	c := &Client{
		cfg:     cfg,
		conn:    conn,
		id:      string(conn.Addr()),
		quorum:  quorum,
		pending: make(map[uint64]*clientCall),
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
	c.nextSeq.Store(uint64(time.Now().UnixNano()))
	for _, id := range cfg.Replicas {
		c.addrs = append(c.addrs, id.Addr())
	}
	c.wg.Add(1)
	go c.receiveLoop()
	return c, nil
}

// ID returns the client identity (its transport address).
func (c *Client) ID() string { return c.id }

// Invoke submits an operation for total ordering without waiting for
// replies (the ordering-service mode: blocks come back through the block
// dissemination path instead).
func (c *Client) Invoke(op []byte) error {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return ErrClientClosed
	}
	seq := c.nextSeq.Add(1)
	c.send(seq, op)
	return nil
}

// Call submits an operation and waits until f+1 (or the tentative quorum)
// replicas reply with identical results, returning that result.
func (c *Client) Call(ctx context.Context, op []byte) ([]byte, error) {
	seq := c.nextSeq.Add(1)
	call := &clientCall{
		votes: make(map[cryptoutil.Digest]map[string]struct{}),
		ch:    make(chan []byte, 1),
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClientClosed
	}
	c.pending[seq] = call
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.pending, seq)
		c.mu.Unlock()
	}()

	c.send(seq, op)
	select {
	case result := <-call.ch:
		return result, nil
	case <-ctx.Done():
		return nil, fmt.Errorf("consensus call %d: %w", seq, ctx.Err())
	case <-c.done:
		return nil, ErrClientClosed
	}
}

func (c *Client) send(seq uint64, op []byte) {
	rq := &request{ClientID: c.id, Seq: seq, Op: op}
	payload := rq.marshal()
	for _, addr := range c.addrs {
		c.conn.Send(addr, msgRequest, payload)
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

// Close shuts the client down. In-flight Call invocations fail with
// ErrClientClosed.
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
