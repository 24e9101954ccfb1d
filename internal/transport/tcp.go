package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/wire"
)

// maxFrameBytes bounds incoming frames to protect against corrupt or
// malicious length prefixes. PROPOSE batches top out at a few megabytes
// (400 envelopes x 4 KB in the paper's largest configuration).
const maxFrameBytes = 64 << 20

// TCPConfig parameterizes a TCP endpoint.
type TCPConfig struct {
	// Addr is this endpoint's logical address.
	Addr Addr
	// Listen is the host:port to accept connections on.
	Listen string
	// Peers maps logical addresses to host:port for outgoing connections.
	// Destinations not in the map are dropped (like the in-proc network).
	Peers map[Addr]string
	// DialTimeout bounds each connection attempt. Zero means 3 seconds.
	DialTimeout time.Duration
	// RedialBackoff is the pause between reconnection attempts. Zero means
	// 500 milliseconds.
	RedialBackoff time.Duration
}

// TCPTransport implements Conn over real sockets with length-prefixed binary
// frames. Each remote peer gets a dedicated writer goroutine fed by an
// unbounded queue (sends never block, mirroring the in-proc semantics);
// incoming connections are demultiplexed into one mailbox.
type TCPTransport struct {
	cfg      TCPConfig
	listener net.Listener
	mailbox  *mailbox

	mu       sync.Mutex
	peers    map[Addr]string
	writers  map[Addr]*tcpWriter
	accepted map[net.Conn]struct{}
	closed   bool

	wg sync.WaitGroup
}

var _ Conn = (*TCPTransport)(nil)

// NewTCPTransport starts listening and returns the endpoint. Outgoing
// connections are established lazily on first send.
func NewTCPTransport(cfg TCPConfig) (*TCPTransport, error) {
	if cfg.Addr == "" {
		return nil, errors.New("tcp transport: empty address")
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 3 * time.Second
	}
	if cfg.RedialBackoff <= 0 {
		cfg.RedialBackoff = 500 * time.Millisecond
	}
	peers := make(map[Addr]string, len(cfg.Peers))
	for addr, hostport := range cfg.Peers {
		peers[addr] = hostport
	}
	t := &TCPTransport{
		cfg:      cfg,
		peers:    peers,
		mailbox:  newMailbox(),
		writers:  make(map[Addr]*tcpWriter),
		accepted: make(map[net.Conn]struct{}),
	}
	if cfg.Listen != "" {
		ln, err := net.Listen("tcp", cfg.Listen)
		if err != nil {
			return nil, fmt.Errorf("tcp listen %s: %w", cfg.Listen, err)
		}
		t.listener = ln
		t.wg.Add(1)
		go t.acceptLoop()
	}
	return t, nil
}

// ListenAddr returns the bound listen address (useful with ":0").
func (t *TCPTransport) ListenAddr() string {
	if t.listener == nil {
		return ""
	}
	return t.listener.Addr().String()
}

func (t *TCPTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.listener.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.accepted[conn] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

func (t *TCPTransport) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.accepted, conn)
		t.mu.Unlock()
	}()
	fr := newFrameReader(conn)
	for {
		m, err := fr.readFrame()
		if err != nil {
			return
		}
		t.mailbox.put(m)
	}
}

func (t *TCPTransport) Addr() Addr { return t.cfg.Addr }

// SetPeers replaces the outgoing address book (used by deployments that
// learn peer ports after start, e.g. ":0" listeners in tests). Existing
// writer connections are kept; new destinations become reachable.
func (t *TCPTransport) SetPeers(peers map[Addr]string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.peers = make(map[Addr]string, len(peers))
	for addr, hostport := range peers {
		t.peers[addr] = hostport
	}
}

func (t *TCPTransport) Send(to Addr, msgType uint16, payload []byte) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	hostport, ok := t.peers[to]
	if !ok {
		t.mu.Unlock()
		return // unknown destination: drop, as in the in-proc network
	}
	w, ok := t.writers[to]
	if !ok {
		dialTO := t.cfg.DialTimeout
		w = newTCPWriter(func() (net.Conn, error) {
			return net.DialTimeout("tcp", hostport, dialTO)
		}, t.cfg.RedialBackoff)
		t.writers[to] = w
	}
	t.mu.Unlock()
	w.enqueue(Message{From: t.cfg.Addr, To: to, Type: msgType, Payload: payload})
}

func (t *TCPTransport) Inbox() <-chan Message { return t.mailbox.out }

func (t *TCPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	writers := make([]*tcpWriter, 0, len(t.writers))
	for _, w := range t.writers {
		writers = append(writers, w)
	}
	conns := make([]net.Conn, 0, len(t.accepted))
	for c := range t.accepted {
		conns = append(conns, c)
	}
	t.mu.Unlock()

	if t.listener != nil {
		t.listener.Close()
	}
	for _, c := range conns {
		c.Close() // unblocks readLoop goroutines
	}
	for _, w := range writers {
		w.stop()
	}
	t.wg.Wait()
	t.mailbox.close()
	return nil
}

// maxQueuedUnreachable bounds the send queue while a peer is unreachable:
// the newest messages are kept (they are the ones worth delivering when the
// peer comes back), older ones become the loss the asynchronous network
// model already allows.
const maxQueuedUnreachable = 4096

// tcpWriter owns the outgoing connection to one peer. Each time it wakes it
// takes the whole queue, frames it into one buffer and writes that with one
// Write, so a burst of sends costs one system call. Dials retry with
// jittered exponential backoff (RetryPolicy) without dropping the pending
// messages, so a transient WAN blip delays delivery instead of losing it;
// only a bounded backlog is retained while the peer stays unreachable, and a
// write error loses at most the batch being written (asynchronous network
// semantics: the layer above must tolerate loss).
type tcpWriter struct {
	dial    func() (net.Conn, error)
	backoff time.Duration

	// frameBuf is the writer goroutine's reusable framing buffer: one
	// steady-state allocation per connection instead of one per message.
	// Capped at retainedFrameCap after each write so one jumbo frame
	// does not pin megabytes for the connection's lifetime.
	frameBuf []byte
	// spare is the queue's second buffer: the writer frames one batch
	// while Send appends to the other, and the two swap at every wake.
	// consensus.Client's request queue follows the same discipline: a
	// change to one belongs in the other.
	spare []Message

	mu     sync.Mutex
	queue  []Message
	notify chan struct{}
	done   chan struct{}
	closed bool
	wg     sync.WaitGroup
}

func newTCPWriter(dial func() (net.Conn, error), backoff time.Duration) *tcpWriter {
	w := &tcpWriter{
		dial:    dial,
		backoff: backoff,
		notify:  make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	w.wg.Add(1)
	go w.run()
	return w
}

func (w *tcpWriter) enqueue(m Message) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.queue = append(w.queue, m)
	w.mu.Unlock()
	select {
	case w.notify <- struct{}{}:
	default:
	}
}

func (w *tcpWriter) run() {
	defer w.wg.Done()
	var conn net.Conn
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	policy := RetryPolicy{Initial: w.backoff, Max: 16 * w.backoff}
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	dialAttempt := 0
	for {
		w.mu.Lock()
		if len(w.queue) == 0 {
			w.mu.Unlock()
			select {
			case <-w.notify:
				continue
			case <-w.done:
				return
			}
		}
		if conn == nil {
			// The queue stays put while disconnected: messages survive
			// dial failures and are only taken once a connection exists.
			w.mu.Unlock()
			var err error
			conn, err = w.dial()
			if err != nil {
				conn = nil
				// Transient dial failure: keep the backlog (bounded) and
				// retry with jittered exponential backoff instead of
				// dropping the messages.
				w.mu.Lock()
				if excess := len(w.queue) - maxQueuedUnreachable; excess > 0 {
					kept := copy(w.queue, w.queue[excess:])
					clear(w.queue[kept:])
					w.queue = w.queue[:kept]
				}
				w.mu.Unlock()
				select {
				case <-time.After(policy.Delay(dialAttempt, rng)):
				case <-w.done:
					return
				}
				dialAttempt++
				continue
			}
			dialAttempt = 0
			continue // connected: loop back to take the queue
		}
		batch := w.queue
		w.queue = w.spare[:0]
		w.mu.Unlock()

		if err := w.writeBatch(conn, batch); err != nil {
			conn.Close()
			conn = nil
		}
		// The spare must not keep the payloads alive, nor a burst's buffer.
		clear(batch)
		if cap(batch) <= maxQueuedUnreachable {
			w.spare = batch[:0]
		} else {
			w.spare = nil
		}
	}
}

// writeBatch frames a batch into the writer's buffer and writes it, in one
// Write unless the frames outgrow retainedFrameCap (then in pieces of about
// that size). On an error the rest of the batch is not written.
func (w *tcpWriter) writeBatch(conn net.Conn, batch []Message) (err error) {
	buf := w.frameBuf[:0]
	for i := range batch {
		buf = appendFrame(buf, batch[i])
		if len(buf) < retainedFrameCap && i < len(batch)-1 {
			continue
		}
		if _, err = conn.Write(buf); err != nil {
			break
		}
		buf = buf[:0]
	}
	if cap(buf) > retainedFrameCap {
		buf = nil
	}
	w.frameBuf = buf
	return err
}

// retainedFrameCap bounds the framing buffer a writer keeps between
// batches; larger frames are allocated ad hoc and released.
const retainedFrameCap = 1 << 20

func (w *tcpWriter) stop() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	w.mu.Unlock()
	close(w.done)
	w.wg.Wait()
}

// Frame layout: u32 total length, then u16 type, u16 fromLen, u16 toLen,
// from, to, payload.

// appendFrame appends one framed message to buf and returns the extended
// slice, so a writer goroutine can reuse one buffer across messages.
func appendFrame(buf []byte, m Message) []byte {
	total := 2 + 2 + 2 + len(m.From) + len(m.To) + len(m.Payload)
	buf = binary.BigEndian.AppendUint32(buf, uint32(total))
	buf = binary.BigEndian.AppendUint16(buf, m.Type)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.From)))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.To)))
	buf = append(buf, m.From...)
	buf = append(buf, m.To...)
	buf = append(buf, m.Payload...)
	return buf
}

// frameReader reads the frames of one connection, which carries one
// sender's messages: the first frame fixes From, and a frame naming another
// sender fails the read, so the connection closes and no later frame of it
// is delivered. The previous frame's To is reused when it repeats instead
// of allocating a new string. What stays is one allocation per frame, the
// frame itself, which the delivered payload aliases.
type frameReader struct {
	frames   *wire.FrameReader
	from, to Addr
	pinned   bool
}

func newFrameReader(conn io.Reader) *frameReader {
	return &frameReader{frames: wire.NewFrameReader(conn, maxFrameBytes)}
}

// errSenderChanged fails a connection whose frames name a second sender.
var errSenderChanged = errors.New("tcp frame names another sender than the connection's first")

func (fr *frameReader) readFrame() (Message, error) {
	buf, err := fr.frames.Next()
	if err != nil {
		return Message{}, err
	}
	if len(buf) < 6 {
		return Message{}, fmt.Errorf("tcp frame length %d out of range", len(buf))
	}
	msgType := binary.BigEndian.Uint16(buf[0:2])
	fromLen := int(binary.BigEndian.Uint16(buf[2:4]))
	toLen := int(binary.BigEndian.Uint16(buf[4:6]))
	if 6+fromLen+toLen > len(buf) {
		return Message{}, errors.New("tcp frame header lengths exceed frame")
	}
	off := 6
	from := buf[off : off+fromLen]
	if fr.pinned && string(from) != string(fr.from) {
		return Message{}, errSenderChanged
	}
	fr.from, fr.pinned = reuseAddr(from, fr.from), true
	off += fromLen
	fr.to = reuseAddr(buf[off:off+toLen], fr.to)
	off += toLen
	payload := buf[off:]
	return Message{From: fr.from, To: fr.to, Type: msgType, Payload: payload}, nil
}

// reuseAddr returns known if b spells it, and a new Addr otherwise.
func reuseAddr(b []byte, known Addr) Addr {
	if string(b) == string(known) {
		return known
	}
	return Addr(b)
}
