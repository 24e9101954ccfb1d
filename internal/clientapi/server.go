package clientapi

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Server exposes an orderer's AtomicBroadcast surface over the
// length-framed TCP protocol. One server handles any number of client
// connections; each connection multiplexes broadcast acks and any number
// of concurrent Deliver streams. On the Deliver side a client that stops
// draining its socket only stalls its own connection (the kernel send
// buffer fills and that connection's stream pumps block). On the
// Broadcast side the backpressure window belongs to the underlying
// frontend and is shared by every connection it serves — deployments
// should set the frontend's BroadcastTimeout (cmd/frontend does) so a
// full window degrades into SERVICE_UNAVAILABLE acks rather than
// blocking all connections' read loops for as long as the cluster
// stalls.
type Server struct {
	orderer fabric.Orderer
	opts    ServerOptions

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// Keepalive defaults.
const (
	// DefaultIdleTimeout is how long a connection may stay silent before
	// the server pings it.
	DefaultIdleTimeout = 45 * time.Second
	// DefaultPingTimeout is how long the server waits for any frame after
	// pinging before declaring the connection dead.
	DefaultPingTimeout = 10 * time.Second
)

// ServerOptions tunes a Server.
type ServerOptions struct {
	// IdleTimeout is the silence period after which the server pings a
	// connection; a connection that stays silent for PingTimeout after
	// the ping is dropped, releasing its Deliver streams and window.
	// Zero selects DefaultIdleTimeout; negative disables keepalive.
	IdleTimeout time.Duration
	// PingTimeout is the post-ping grace period. Zero selects
	// DefaultPingTimeout.
	PingTimeout time.Duration
	// Metrics, when set, counts connections, broadcasts, and open Deliver
	// streams. Nil disables.
	Metrics *obs.ClientAPIMetrics
}

func (o ServerOptions) withDefaults() ServerOptions {
	if o.IdleTimeout == 0 {
		o.IdleTimeout = DefaultIdleTimeout
	}
	if o.PingTimeout <= 0 {
		o.PingTimeout = DefaultPingTimeout
	}
	o.Metrics = o.Metrics.OrNop()
	return o
}

// NewServer wraps an orderer (a core.Frontend or core.SoloOrderer) with
// default keepalive options.
func NewServer(orderer fabric.Orderer) *Server {
	return NewServerWithOptions(orderer, ServerOptions{})
}

// NewServerWithOptions wraps an orderer with explicit options.
func NewServerWithOptions(orderer fabric.Orderer, opts ServerOptions) *Server {
	return &Server{
		orderer: orderer,
		opts:    opts.withDefaults(),
		conns:   make(map[net.Conn]struct{}),
	}
}

// Serve accepts connections until the listener closes (or Close is
// called). It blocks; run it on its own goroutine for a concurrent
// server.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("clientapi: server closed")
	}
	s.listener = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// Close stops accepting, drops every connection, and waits for handlers.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	ln := s.listener
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}

// serverConn is one client connection's state.
type serverConn struct {
	srv *Server
	frameConn

	mu      sync.Mutex
	streams map[uint64]*fabric.BlockStream
	wg      sync.WaitGroup

	pingNonce atomic.Uint64
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	s.opts.Metrics.ConnectionsTotal.Inc()
	s.opts.Metrics.Connections.Add(1)
	defer s.opts.Metrics.Connections.Add(-1)
	sc := &serverConn{srv: s, frameConn: frameConn{conn: conn}, streams: make(map[uint64]*fabric.BlockStream)}
	sc.readLoop()
	// Tear down: cancel every stream the client left open, wait for their
	// pumps, then drop the connection.
	sc.mu.Lock()
	for _, stream := range sc.streams {
		stream.Cancel()
	}
	sc.mu.Unlock()
	sc.wg.Wait()
	conn.Close()
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// readLoop dispatches frames; with keepalive enabled it reads under an
// idle deadline, pings the client once the deadline passes, and drops
// the connection when even the ping goes unanswered — the teardown in
// handle then cancels the dead client's Deliver streams.
func (sc *serverConn) readLoop() {
	idle := sc.srv.opts.IdleTimeout
	fr := wire.NewFrameReader(sc.conn, maxFrameBytes)
	pinged := false
	for {
		if idle > 0 {
			wait := idle
			if pinged {
				wait = sc.srv.opts.PingTimeout
			}
			sc.conn.SetReadDeadline(time.Now().Add(wait))
		}
		before := fr.Received()
		payload, err := fr.Next()
		if err != nil {
			if idle > 0 && isTimeout(err) {
				if fr.Received() > before {
					// Bytes arrived (a large frame trickling in): that is
					// liveness; keep reading without burning the ping.
					pinged = false
					continue
				}
				if !pinged {
					pinged = true
					if sc.sendID(msgPing, sc.pingNonce.Add(1)) == nil {
						continue
					}
				}
			}
			return // dead, gone, or mid-frame garbage
		}
		pinged = false // any complete frame proves liveness
		f, err := decodeFrame(payload)
		if err != nil {
			return // protocol violation: drop the connection
		}
		switch f.kind {
		case msgBroadcast:
			sc.onBroadcast(f)
		case msgDeliver:
			sc.onDeliver(f)
		case msgCancel:
			sc.mu.Lock()
			stream := sc.streams[f.id]
			sc.mu.Unlock()
			if stream != nil {
				stream.Cancel()
			}
		case msgPing:
			sc.sendID(msgPong, f.id)
		case msgPong:
			// Liveness already noted above; the nonce carries no state.
		default:
			return // clients must not send server-side frames
		}
	}
}

// isTimeout reports whether err is a read-deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// onBroadcast unmarshals and submits the envelope, then acks with the
// orderer's typed status. The submit runs on the read loop, so a full
// backpressure window slows this client's own frame intake — exactly the
// per-client flow control the window exists for.
func (sc *serverConn) onBroadcast(f frame) {
	env, err := fabric.UnmarshalEnvelope(f.envelope)
	var status fabric.BroadcastStatus
	detail := ""
	if err != nil {
		status = fabric.StatusBadRequest
		detail = err.Error()
	} else {
		sc.srv.opts.Metrics.Broadcasts.Inc()
		status = sc.srv.orderer.Broadcast(env)
		if status != fabric.StatusSuccess {
			detail = status.Err().Error()
		}
	}
	sc.sendStatus(msgAck, f.id, status, detail)
}

// onDeliver opens the stream and pumps its blocks to the client until it
// ends; the terminal frame carries the stream's outcome.
func (sc *serverConn) onDeliver(f frame) {
	stream, err := sc.srv.orderer.Deliver(f.channel, f.seek)
	if err != nil {
		sc.sendStatus(msgStreamEnd, f.id, fabric.StatusOf(err), err.Error())
		return
	}
	sc.mu.Lock()
	if _, dup := sc.streams[f.id]; dup {
		sc.mu.Unlock()
		stream.Cancel()
		sc.sendStatus(msgStreamEnd, f.id, fabric.StatusBadRequest, "stream id already in use")
		return
	}
	sc.streams[f.id] = stream
	sc.wg.Add(1)
	sc.mu.Unlock()
	sc.srv.opts.Metrics.DeliverStreams.Add(1)

	go func() {
		defer sc.wg.Done()
		// On a write failure the stream is canceled but still drained to
		// the close: Err is only valid (and race-free) once Blocks()
		// closed, which the producer does after observing the cancel.
		writeFailed := false
		for b := range stream.Blocks() {
			if writeFailed {
				continue
			}
			if err := sc.sendBlocks(f.id, b, stream.Blocks()); err != nil {
				stream.Cancel()
				writeFailed = true
			}
		}
		status, detail := fabric.StatusSuccess, ""
		if err := stream.Err(); err != nil {
			status = fabric.StatusOf(err)
			detail = err.Error()
		}
		sc.sendStatus(msgStreamEnd, f.id, status, detail)
		sc.mu.Lock()
		delete(sc.streams, f.id)
		sc.mu.Unlock()
		sc.srv.opts.Metrics.DeliverStreams.Add(-1)
	}()
}

// wakeBytes caps the block frames a Deliver pump writes in one Write.
const wakeBytes = 256 << 10

// sendBlocks writes block and every further block the stream already has
// ready, up to wakeBytes of frames, in one Write. Each block is encoded
// once, straight into the connection's framing buffer.
func (sc *serverConn) sendBlocks(streamID uint64, block *fabric.Block, ready <-chan *fabric.Block) error {
	w := sc.begin()
	putBlock(w, streamID, block)
	for w.Len() < wakeBytes {
		select {
		case b, ok := <-ready:
			if !ok {
				return sc.flush()
			}
			putBlock(w, streamID, b)
		default:
			return sc.flush()
		}
	}
	return sc.flush()
}
