package clientapi

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"repro/internal/fabric"
	"repro/internal/wire"
)

// ErrClientClosed terminates calls after the connection dropped.
var ErrClientClosed = errors.New("clientapi: connection closed")

// Client speaks the wire protocol from an external process: synchronous
// Broadcast calls with typed acks and any number of concurrent Deliver
// streams over one TCP connection.
type Client struct {
	frameConn

	mu       sync.Mutex
	nextID   uint64
	acks     map[uint64]chan ackResult
	streams  map[uint64]*clientStream
	closed   bool
	closeErr error

	wg sync.WaitGroup
}

type ackResult struct {
	status fabric.BroadcastStatus
	detail string
}

// ClientStream is a Deliver stream on the client side.
type clientStream struct {
	id     uint64
	c      chan *fabric.Block
	drop   chan struct{} // closed on local cancel: discard in-flight blocks
	client *Client

	mu       sync.Mutex
	err      error
	closed   bool
	dropping bool
}

// Dial connects to a cmd/frontend client-API listener.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("clientapi: %w", err)
	}
	return newClient(conn), nil
}

// newClient speaks the protocol over an established connection.
func newClient(conn net.Conn) *Client {
	c := &Client{
		frameConn: frameConn{conn: conn},
		acks:      make(map[uint64]chan ackResult),
		streams:   make(map[uint64]*clientStream),
	}
	c.wg.Add(1)
	go c.readLoop()
	return c
}

func (c *Client) id() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	return c.nextID
}

// Broadcast submits one envelope and waits for its typed acknowledgement.
// The detail string elaborates on non-success statuses.
func (c *Client) Broadcast(env *fabric.Envelope) (fabric.BroadcastStatus, string, error) {
	if env == nil {
		return fabric.StatusBadRequest, "nil envelope", nil
	}
	id := c.id()
	ch := make(chan ackResult, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, "", ErrClientClosed
	}
	c.acks[id] = ch
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.acks, id)
		c.mu.Unlock()
	}()
	putBroadcast(c.begin(), id, env)
	if err := c.flush(); err != nil {
		return 0, "", fmt.Errorf("clientapi: %w", err)
	}
	ack, ok := <-ch
	if !ok {
		return 0, "", ErrClientClosed
	}
	return ack.status, ack.detail, nil
}

// Deliver opens a block stream positioned by seek. Blocks arrive on
// Blocks(); the channel closes after the stop position, a Cancel, or a
// failure (see Err).
func (c *Client) Deliver(channel string, seek fabric.SeekInfo) (*DeliverStream, error) {
	id := c.id()
	cs := &clientStream{
		id:     id,
		c:      make(chan *fabric.Block, streamBufferClient),
		drop:   make(chan struct{}),
		client: c,
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClientClosed
	}
	c.streams[id] = cs
	c.mu.Unlock()
	putDeliver(c.begin(), id, channel, seek)
	if err := c.flush(); err != nil {
		c.mu.Lock()
		delete(c.streams, id)
		c.mu.Unlock()
		return nil, fmt.Errorf("clientapi: %w", err)
	}
	return &DeliverStream{cs: cs}, nil
}

// streamBufferClient bounds blocks buffered client-side per stream; a full
// buffer pushes back on the whole connection (the read loop stalls), which
// in turn stalls the server's writes — end-to-end flow control.
const streamBufferClient = 64

// DeliverStream is the consumer handle of a client-side Deliver.
type DeliverStream struct {
	cs *clientStream
}

// Blocks returns the ordered block channel.
func (s *DeliverStream) Blocks() <-chan *fabric.Block { return s.cs.c }

// Err reports why the stream ended: nil after a clean stop or cancel,
// otherwise the server's terminal status. Valid after Blocks() closed.
func (s *DeliverStream) Err() error {
	s.cs.mu.Lock()
	defer s.cs.mu.Unlock()
	return s.cs.err
}

// Cancel asks the server to stop the stream. Blocks still in flight are
// discarded (a consumer that cancels and stops draining cannot wedge the
// connection's read loop); the stream closes when the terminal frame
// arrives.
func (s *DeliverStream) Cancel() {
	s.cs.mu.Lock()
	if !s.cs.dropping {
		s.cs.dropping = true
		close(s.cs.drop)
	}
	s.cs.mu.Unlock()
	s.cs.client.sendID(msgCancel, s.cs.id)
}

// finish closes the stream with its terminal state.
func (cs *clientStream) finish(err error) {
	cs.mu.Lock()
	if cs.closed {
		cs.mu.Unlock()
		return
	}
	cs.closed = true
	cs.err = err
	cs.mu.Unlock()
	close(cs.c)
}

func (c *Client) readLoop() {
	defer c.wg.Done()
	var readErr error
	fr := wire.NewFrameReader(c.conn, maxFrameBytes)
	for {
		payload, err := fr.Next()
		if err != nil {
			readErr = err
			break
		}
		f, err := decodeFrame(payload)
		if err != nil {
			readErr = err
			break
		}
		switch f.kind {
		case msgAck:
			c.mu.Lock()
			ch := c.acks[f.id]
			c.mu.Unlock()
			if ch != nil {
				select {
				case ch <- ackResult{status: f.status, detail: f.detail}:
				default:
				}
			}
		case msgBlock:
			c.mu.Lock()
			cs := c.streams[f.id]
			c.mu.Unlock()
			if cs != nil && f.block != nil {
				select {
				case cs.c <- f.block: // bounded buffer: stalls the read loop when full
				case <-cs.drop: // canceled mid-send: discard
				}
			}
		case msgStreamEnd:
			c.mu.Lock()
			cs := c.streams[f.id]
			delete(c.streams, f.id)
			c.mu.Unlock()
			if cs != nil {
				var err error
				if f.status != fabric.StatusSuccess {
					err = fmt.Errorf("clientapi: stream ended with %s: %s", f.status, f.detail)
				}
				cs.finish(err)
			}
		case msgPing:
			// Server keepalive probe: answer so an idle but healthy
			// connection (e.g. tailing a quiet channel) is not dropped.
			c.sendID(msgPong, f.id)
		case msgPong:
			// Nothing to do: receiving any frame already proves the
			// server alive.
		}
	}
	c.teardown(readErr)
}

// teardown fails every pending call after the connection dropped.
func (c *Client) teardown(err error) {
	c.mu.Lock()
	c.closed = true
	c.closeErr = err
	acks := c.acks
	c.acks = make(map[uint64]chan ackResult)
	streams := c.streams
	c.streams = make(map[uint64]*clientStream)
	c.mu.Unlock()
	for _, ch := range acks {
		close(ch)
	}
	for _, cs := range streams {
		cs.finish(ErrClientClosed)
	}
}

// Close drops the connection; pending Broadcasts fail and open streams end
// with ErrClientClosed.
func (c *Client) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.wg.Wait()
		return
	}
	c.mu.Unlock()
	c.conn.Close()
	c.wg.Wait()
}
