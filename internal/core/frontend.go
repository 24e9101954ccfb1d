package core

import (
	"bytes"
	"errors"
	"fmt"
	"hash/maphash"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/consensus"
	"repro/internal/cryptoutil"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/transport"
)

// ErrFrontendClosed terminates calls and streams after Close.
var ErrFrontendClosed = errors.New("frontend closed")

// Frontend defaults.
const (
	// DefaultMaxInflight is the per-client backpressure window: envelopes
	// broadcast but not yet observed in a released block.
	DefaultMaxInflight = 32768
	// DefaultHistoryLimit is how many released blocks per channel an
	// orderer retains in memory to serve Deliver seeks; a frontend refetches
	// older ones from the ordering nodes' durable ledgers on demand.
	DefaultHistoryLimit = 1024
)

// FrontendConfig parameterizes a frontend (the HLF consenter + BFT shim of
// Figure 5).
type FrontendConfig struct {
	// ID names the frontend; its block-reception endpoint uses this as the
	// transport address and its consensus client uses ID+"-client".
	ID string
	// Replicas is the ordering cluster membership.
	Replicas []consensus.ReplicaID
	// F is the fault threshold (zero derives the maximum).
	F int
	// VerifySignatures switches the release rule's vote threshold from
	// 2f+1 copies to f+1 verified signatures (footnote 8 of the paper);
	// either way one copy must bring the body.
	VerifySignatures bool
	// Registry resolves ordering-node keys; required when verifying.
	Registry *cryptoutil.Registry
	// Channels optionally restricts the channels this frontend serves.
	// Empty serves every channel; otherwise Broadcast and Deliver answer
	// StatusNotFound / ErrChannelNotFound for unlisted channels.
	Channels []string
	// MaxInflight bounds the envelopes this frontend has broadcast but not
	// yet seen come back in a released block. A full window makes
	// Broadcast block (backpressure) rather than buffer without bound.
	// Zero selects DefaultMaxInflight; negative disables the window.
	MaxInflight int
	// BroadcastTimeout bounds how long Broadcast blocks waiting for window
	// space before answering StatusServiceUnavailable. Zero waits until
	// space frees or the frontend closes.
	BroadcastTimeout time.Duration
	// Metrics, when set, receives frontend instrumentation: released
	// blocks/envelopes, the disseminate→deliver and end-to-end stage
	// latencies, and backpressure-window occupancy. Nil disables.
	Metrics *obs.FrontendMetrics
}

// FrontendStats exposes frontend progress counters.
type FrontendStats struct {
	EnvelopesSent      uint64
	BlocksReleased     uint64
	EnvelopesDelivered uint64
}

// Frontend relays envelopes from clients into the ordering cluster and
// collects the resulting blocks. It implements the fabric.Orderer surface:
// Broadcast with typed status acknowledgements and a seekable Deliver that
// replays history (from its retained window, or fetched from the nodes'
// durable ledgers under blockSync's trust rule) before switching to the
// live stream with no gaps or duplicates.
type Frontend struct {
	cfg        FrontendConfig
	conn       transport.Conn // receives MsgBlock / MsgFetchResponse from ordering nodes
	client     *consensus.Client
	clientConn transport.Conn // the consensus client's endpoint, closed with the frontend
	released   int            // vote threshold: 2f+1 copies or f+1 verified signatures
	sync       *blockSync     // client half only: history fetched for Deliver
	peers      []transport.Addr
	channels   map[string]struct{}  // non-nil when cfg.Channels restricts
	metrics    *obs.FrontendMetrics // never nil: normalized at construction
	logs       *releaseLogs         // released blocks per channel, and the Deliver streams reading them

	mu     sync.Mutex
	chans  map[string]*feChannel
	closed bool

	// inflight is the per-client backpressure window (nil when disabled):
	// a slot is held from Broadcast until the envelope surfaces in a
	// released block.
	inflight *inflightWindow

	statSent      atomic.Uint64
	statBlocks    atomic.Uint64
	statEnvs      atomic.Uint64
	statLatencyCb atomic.Pointer[func(*fabric.Block)]

	done chan struct{}
	wg   sync.WaitGroup
}

// feChannel tracks block collection for one channel.
type feChannel struct {
	// log releases the channel's blocks in number order. Its cursor starts
	// at the first block to reach the vote threshold, whether or not its
	// body has arrived (a frontend may register mid-chain; anchoring at the
	// first block released would let a later block whose body came first
	// skip the ones below it). advanced records that the cursor moved
	// since the last heal tick.
	log        *releaseLog
	advanced   bool
	collecting map[uint64]map[cryptoutil.Digest]*blockAccum
}

// blockAccum accumulates the copies of one block that agree on its header:
// one vote per sender, whole or header-only, and the first body that hashes
// to the header.
type blockAccum struct {
	header fabric.BlockHeader
	body   *fabric.Block // a copy whose envelopes hash to header; nil until one arrives
	// votes holds one entry per sender that voted, at most one per node,
	// with the sender's signature when its copy carried one (nil otherwise).
	votes    []fabric.BlockSignature
	verified int
	released bool
}

// voted reports whether sender already voted for the block.
func (a *blockAccum) voted(sender string) bool {
	for _, v := range a.votes {
		if v.SignerID == sender {
			return true
		}
	}
	return false
}

// emptyDataHash is the data hash of a block without envelopes. A copy with
// no envelopes and another data hash is header-only: a vote without a body.
var emptyDataHash = fabric.ComputeDataHash(nil)

// NewFrontend joins the network with two endpoints (block reception and
// consensus client), registers with every ordering node, and starts the
// receive loop.
func NewFrontend(cfg FrontendConfig, network *transport.InProcNetwork) (*Frontend, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	conn, err := network.Join(transport.Addr(cfg.ID))
	if err != nil {
		return nil, fmt.Errorf("frontend: %w", err)
	}
	clientConn, err := network.Join(transport.Addr(cfg.ID + "-client"))
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("frontend: %w", err)
	}
	return newFrontendWithConns(cfg, conn, clientConn)
}

// NewFrontendWithConns builds a frontend over explicit transport
// connections: conn receives blocks (its address must be what ordering
// nodes see as the frontend), clientConn carries consensus-client traffic.
// Used by the TCP multi-process deployment (cmd/frontend).
func NewFrontendWithConns(cfg FrontendConfig, conn, clientConn transport.Conn) (*Frontend, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return newFrontendWithConns(cfg, conn, clientConn)
}

func (cfg *FrontendConfig) validate() error {
	if cfg.ID == "" {
		return errors.New("frontend: empty id")
	}
	if len(cfg.Replicas) == 0 {
		return errors.New("frontend: empty replica set")
	}
	if cfg.F <= 0 {
		cfg.F = consensus.MaxFaults(len(cfg.Replicas))
	}
	if cfg.VerifySignatures && cfg.Registry == nil {
		return errors.New("frontend: signature verification requires a registry")
	}
	if cfg.MaxInflight == 0 {
		cfg.MaxInflight = DefaultMaxInflight
	}
	return nil
}

// newFrontendWithConns finishes construction over explicit connections
// (shared with the TCP deployment path).
func newFrontendWithConns(cfg FrontendConfig, conn, clientConn transport.Conn) (*Frontend, error) {
	client, err := consensus.NewClient(clientConn, consensus.ClientConfig{
		Replicas: cfg.Replicas,
	})
	if err != nil {
		conn.Close()
		clientConn.Close()
		return nil, fmt.Errorf("frontend: %w", err)
	}
	threshold := 2*cfg.F + 1
	if cfg.VerifySignatures {
		threshold = cfg.F + 1
	}
	f := &Frontend{
		cfg:        cfg,
		conn:       conn,
		client:     client,
		clientConn: clientConn,
		released:   threshold,
		metrics:    cfg.Metrics.OrNop(),
		chans:      make(map[string]*feChannel),
		done:       make(chan struct{}),
	}
	if cfg.MaxInflight > 0 {
		f.inflight = newInflightWindow(cfg.MaxInflight)
		if cfg.Metrics != nil {
			w := f.inflight
			cfg.Metrics.GaugeFunc("repro_frontend_inflight_window",
				"Occupied slots of the per-client backpressure window.",
				func() float64 { return float64(len(w.sem)) })
		}
	}
	if len(cfg.Channels) > 0 {
		f.channels = make(map[string]struct{}, len(cfg.Channels))
		for _, ch := range cfg.Channels {
			f.channels[ch] = struct{}{}
		}
	}
	f.peers = make([]transport.Addr, len(cfg.Replicas))
	for i, id := range cfg.Replicas {
		f.peers[i] = id.Addr()
	}
	f.sync = newBlockSync(conn, cfg.Registry, func() ([]transport.Addr, int) { return f.peers, cfg.F })
	f.logs = newReleaseLogs(f.sync, ErrFrontendClosed)
	// Register with every ordering node so the custom replier includes
	// this frontend in block dissemination.
	for _, addr := range f.peers {
		conn.Send(addr, MsgRegister, nil)
	}
	f.wg.Add(1)
	go f.receiveLoop()
	return f, nil
}

// ID returns the frontend identity.
func (f *Frontend) ID() string { return f.cfg.ID }

// Stats returns progress counters.
func (f *Frontend) Stats() FrontendStats {
	return FrontendStats{
		EnvelopesSent:      f.statSent.Load(),
		BlocksReleased:     f.statBlocks.Load(),
		EnvelopesDelivered: f.statEnvs.Load(),
	}
}

// ReleasedHeight returns the frontend's release cursor for a channel: the
// number of the next block it will release (every block below it has been
// released, or lies below the block the cursor started at), 0 before the
// cursor started.
// Diagnostics use it to tell a stalled release from a lost write.
func (f *Frontend) ReleasedHeight(channel string) uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if ch, ok := f.chans[channel]; ok {
		_, next, _ := ch.log.cursor()
		return next
	}
	return 0
}

var _ fabric.Orderer = (*Frontend)(nil)

// serves reports whether the frontend accepts traffic for a channel.
func (f *Frontend) serves(channel []byte) bool {
	if f.channels == nil {
		return true
	}
	_, ok := f.channels[string(channel)]
	return ok
}

// Broadcast relays one envelope to the ordering cluster (protocol step 4)
// and acknowledges with a typed status. The invocation is asynchronous:
// the frontend never blocks waiting for replies; ordered results come back
// as blocks (Section 5.1). The per-client window bounds unacknowledged
// envelopes: a full window blocks the caller (up to BroadcastTimeout)
// instead of buffering without bound.
func (f *Frontend) Broadcast(env *fabric.Envelope) fabric.BroadcastStatus {
	if env == nil || env.ChannelID == "" {
		return fabric.StatusBadRequest
	}
	return f.BroadcastRaw(env.Marshal())
}

// BroadcastRaw relays an already-marshalled envelope (benchmark hot path).
func (f *Frontend) BroadcastRaw(raw []byte) fabric.BroadcastStatus {
	channel, err := fabric.PeekChannel(raw)
	if err != nil {
		return fabric.StatusBadRequest
	}
	if !f.serves(channel) {
		return fabric.StatusNotFound
	}
	f.mu.Lock()
	closed := f.closed
	f.mu.Unlock()
	if closed {
		return fabric.StatusServiceUnavailable
	}
	if f.inflight != nil {
		if !f.inflight.acquire(raw, f.cfg.BroadcastTimeout, f.done) {
			return fabric.StatusServiceUnavailable
		}
	}
	if err := f.client.Invoke(raw); err != nil {
		if f.inflight != nil {
			f.inflight.release(raw)
		}
		return fabric.StatusServiceUnavailable
	}
	f.statSent.Add(1)
	return fabric.StatusSuccess
}

// Deliver opens a block stream for a channel, positioned by seek: history
// below the retained window is fetched from the ordering nodes' durable
// ledgers, then the stream follows the channel's releases with no gaps or
// duplicates (see releaseLogs.deliver).
func (f *Frontend) Deliver(channel string, seek fabric.SeekInfo) (*fabric.BlockStream, error) {
	if !f.serves([]byte(channel)) {
		return nil, fabric.ErrChannelNotFound
	}
	return f.logs.deliver(channel, seek)
}

// FetchVerified retrieves blocks [from, to) of a channel from the ordering
// nodes, authenticated purely by f+1 node signatures per block: no prior
// chain state is consulted, so the call probes — from any goroutine —
// whether the cluster can still prove its history against a live
// adversary. The chaos harness's verified-fetch invariant calls it
// continuously and cross-checks the result against the released stream.
func (f *Frontend) FetchVerified(channel string, from, to uint64) ([]*fabric.Block, error) {
	return f.sync.fetch(f.done, channel, from, to, nil, true)
}

// OnBlock installs a callback invoked synchronously on the receive loop for
// every released block (used by the latency harness to timestamp releases
// precisely). Pass nil to remove.
func (f *Frontend) OnBlock(cb func(*fabric.Block)) {
	if cb == nil {
		f.statLatencyCb.Store(nil)
		return
	}
	f.statLatencyCb.Store(&cb)
}

func (f *Frontend) receiveLoop() {
	defer f.wg.Done()
	heal := time.NewTicker(fetchWindowTimeout)
	defer heal.Stop()
	for {
		select {
		case <-f.done:
			return
		case <-heal.C:
			f.heal()
		case m, ok := <-f.conn.Inbox():
			if !ok {
				return
			}
			if !f.fromOrderingNode(m.From) {
				continue
			}
			switch m.Type {
			case MsgBlock:
				channel, block, sentNano, err := unmarshalBlockMsg(m.Payload)
				if err != nil {
					continue
				}
				f.onBlockCopy(string(m.From), channel, block, sentNano)
			case MsgFetchResponse:
				f.sync.handleResponse(m.From, m.Payload)
			}
		}
	}
}

// heal asks every node that has not supplied a usable copy of a stalled
// channel's cursor block to re-register this frontend and replay from the
// cursor: the nodes absent from its votes and, while no copy brought a
// body, the nodes that voted header-only (a replay sends blocks whole). A
// channel stalls when its cursor has not moved for a whole tick: copies
// were lost on the wire or never sent, because a node was down or
// restarted and forgot this frontend (when all did, nothing arrives:
// indistinguishable from an idle chain, which costs each node one empty
// replay per tick).
func (f *Frontend) heal() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for name, ch := range f.chans {
		moved := ch.advanced
		ch.advanced = false
		_, next, started := ch.log.cursor()
		if moved || !started {
			continue
		}
		voted := make(map[string]bool)
		for _, acc := range ch.collecting[next] {
			if acc.body == nil {
				continue // votes without a body: the body is still to ask for
			}
			for _, v := range acc.votes {
				voted[v.SignerID] = true
			}
		}
		payload := fetchRequest{Channel: name, From: next}.marshal()
		for _, peer := range f.peers {
			if !voted[string(peer)] {
				f.conn.Send(peer, MsgRegister, payload) // never blocks
			}
		}
	}
}

func (f *Frontend) fromOrderingNode(addr transport.Addr) bool {
	for _, peer := range f.peers {
		if peer == addr {
			return true
		}
	}
	return false
}

// onBlockCopy processes one node's copy of a block: copies vote by header
// hash, signatures accumulate, and the block is released once the
// threshold is met (2f+1 matching, or f+1 verified) and one copy brought a
// body that hashes to the header. A header-only copy votes and brings no
// body. One vote per node absorbs copies arriving out of order or twice
// (replays); a node that voted header-only can still bring the body.
//
// A copy that cannot change anything — its block already delivered or
// released, or its sender already voted for it and it brings no missing
// body — is dropped before its data hash is checked: the last copies of
// every block would otherwise be hashed in full for nothing. A copy with
// the header of a body already accumulated (whose data hash was checked) is
// compared with that body byte for byte instead of hashed; only a copy that
// differs is hashed, so a corrupted copy still gets no vote.
func (f *Frontend) onBlockCopy(sender, channel string, block *fabric.Block, sentNano int64) {
	digest := block.Header.Hash()
	number := block.Header.Number
	headerOnly := len(block.Envelopes) == 0 && block.Header.DataHash != emptyDataHash
	f.mu.Lock()
	settled := f.settled(channel, number, digest, sender, headerOnly)
	checked := f.accumulated(channel, number, digest)
	f.mu.Unlock()
	if settled {
		return // nothing to add
	}
	if !headerOnly && (checked == nil || !slices.EqualFunc(checked.Envelopes, block.Envelopes, bytes.Equal)) {
		if block.CheckIntegrity() != nil {
			return // data hash does not match content
		}
	}

	f.mu.Lock()
	// Again: the channel may have moved on while the copy was hashed.
	if f.settled(channel, number, digest, sender, headerOnly) {
		f.mu.Unlock()
		return
	}
	ch := f.feChannel(channel)
	byDigest, ok := ch.collecting[number]
	if !ok {
		byDigest = make(map[cryptoutil.Digest]*blockAccum)
		ch.collecting[number] = byDigest
	}
	acc, ok := byDigest[digest]
	if !ok {
		acc = &blockAccum{header: block.Header, votes: make([]fabric.BlockSignature, 0, len(f.peers))}
		byDigest[digest] = acc
	}
	if !headerOnly && acc.body == nil {
		acc.body = block
	}
	if !acc.voted(sender) {
		var sig []byte
		if len(block.Signatures) > 0 && block.Signatures[0].SignerID == sender {
			sig = block.Signatures[0].Signature
			if block != acc.body {
				// Only the signature of this copy is kept: detach it, or
				// every released block would keep all its copies' frames
				// alive.
				sig = bytes.Clone(sig)
			}
		}
		acc.votes = append(acc.votes, fabric.BlockSignature{SignerID: sender, Signature: sig})
		if f.cfg.VerifySignatures && sig != nil {
			if f.cfg.Registry.Verify(sender, digest.Bytes(), sig) {
				acc.verified++
			}
		}
	}

	passed := len(acc.votes) >= f.released
	if f.cfg.VerifySignatures {
		passed = acc.verified >= f.released
	}
	if !passed {
		f.mu.Unlock()
		return
	}
	// The first block to reach the vote threshold starts the cursor. Copies
	// below it are dropped, and the inflight-window slots of their bodies'
	// envelopes freed below.
	var dropped [][]byte
	if ch.log.start(number) {
		for n, byDigest := range ch.collecting {
			if n < number {
				for _, acc := range byDigest {
					if acc.body != nil {
						dropped = append(dropped, acc.body.Envelopes...)
					}
				}
				delete(ch.collecting, n)
			}
		}
	}
	var deliveries []*fabric.Block
	if acc.body != nil {
		acc.released = true
		// Attach the accumulated signatures (deterministic order not
		// required: peers verify any f+1).
		released := &fabric.Block{
			Header:     acc.header,
			Envelopes:  acc.body.Envelopes,
			Signatures: make([]fabric.BlockSignature, 0, len(acc.votes)),
		}
		for _, v := range acc.votes {
			if v.Signature != nil {
				released.Signatures = append(released.Signatures, v)
			}
		}
		deliveries = ch.log.put(released)
	}
	for _, b := range deliveries {
		delete(ch.collecting, b.Header.Number)
		ch.advanced = true
	}
	f.mu.Unlock()

	// Window accounting hashes every envelope, so skip it entirely on
	// deliver-only frontends (nothing pending): the release path is the
	// throughput-critical side of the benchmark receivers.
	accounting := f.inflight != nil && f.inflight.active()
	if accounting {
		// release is a no-op for envelopes this client never broadcast, so
		// counting every dropped copy is safe.
		for _, raw := range dropped {
			f.inflight.release(raw)
		}
	}
	// Stage trace: the copy that completed the release quorum carries the
	// sender's dissemination timestamp; the first envelope of each released
	// block carries the client submission timestamp (end-to-end anchor).
	if f.metrics.StageDeliver != nil && len(deliveries) > 0 {
		now := time.Now()
		observeStamp(f.metrics.StageDeliver, sentNano, now)
		for _, b := range deliveries {
			if len(b.Envelopes) == 0 {
				continue
			}
			if ts, err := fabric.PeekTimestamp(b.Envelopes[0]); err == nil {
				observeStamp(f.metrics.StageTotal, ts, now)
			}
		}
	}
	for _, b := range deliveries {
		f.statBlocks.Add(1)
		f.statEnvs.Add(uint64(len(b.Envelopes)))
		f.metrics.Blocks.Inc()
		f.metrics.Envelopes.Add(uint64(len(b.Envelopes)))
		if accounting {
			for _, raw := range b.Envelopes {
				f.inflight.release(raw)
			}
		}
		if cb := f.statLatencyCb.Load(); cb != nil {
			(*cb)(b)
		}
	}
}

// settled reports whether a copy of block number (header hash digest) from
// sender, header-only or not, can no longer change the channel's release
// state. Requires f.mu.
func (f *Frontend) settled(channel string, number uint64, digest cryptoutil.Digest, sender string, headerOnly bool) bool {
	ch, ok := f.chans[channel]
	if !ok {
		return false
	}
	if _, next, _ := ch.log.cursor(); number < next {
		return true
	}
	acc := ch.collecting[number][digest]
	if acc == nil {
		return false
	}
	if acc.released {
		return true
	}
	return acc.voted(sender) && (headerOnly || acc.body != nil)
}

// accumulated returns the body of block number with header hash digest
// that the channel holds votes for, if any.
func (f *Frontend) accumulated(channel string, number uint64, digest cryptoutil.Digest) *fabric.Block {
	if ch, ok := f.chans[channel]; ok {
		if acc := ch.collecting[number][digest]; acc != nil {
			return acc.body
		}
	}
	return nil
}

func (f *Frontend) feChannel(channel string) *feChannel {
	ch, ok := f.chans[channel]
	if !ok {
		ch = &feChannel{
			log:        f.logs.log(channel),
			collecting: make(map[uint64]map[cryptoutil.Digest]*blockAccum),
		}
		f.chans[channel] = ch
	}
	return ch
}

// Close unregisters from the ordering nodes, cancels every Deliver stream,
// and stops the receive loop.
func (f *Frontend) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	f.mu.Unlock()

	for _, addr := range f.peers {
		f.conn.Send(addr, MsgUnregister, nil)
	}
	close(f.done)
	f.logs.close()
	f.client.Close()
	f.clientConn.Close()
	f.conn.Close()
	f.wg.Wait()
}

// ---- per-client backpressure window ------------------------------------

// inflightWindow is a counting semaphore keyed by envelope: a slot is held
// from Broadcast until the envelope surfaces in a released block, bounding
// how much a client can buffer inside the ordering pipeline.
//
// The window only counts slots; what is trusted is decided by the release
// rule and CheckIntegrity, which keep SHA-256. So an envelope is keyed by a
// 64-bit hash of its bytes (hash/maphash) under a seed of the window's own,
// which no client can aim collisions at: two envelopes that did collide
// would only free each other's slot.
type inflightWindow struct {
	sem  chan struct{}
	seed maphash.Seed

	mu      sync.Mutex
	pending map[uint64]int
}

func newInflightWindow(size int) *inflightWindow {
	return &inflightWindow{
		sem:     make(chan struct{}, size),
		seed:    maphash.MakeSeed(),
		pending: make(map[uint64]int),
	}
}

// acquire takes a window slot for the envelope, blocking while the window
// is full (bounded by timeout when > 0, and by closed). It reports whether
// the slot was obtained.
func (w *inflightWindow) acquire(env []byte, timeout time.Duration, closed <-chan struct{}) bool {
	select {
	case w.sem <- struct{}{}:
	default:
		var expire <-chan time.Time
		if timeout > 0 {
			t := time.NewTimer(timeout)
			defer t.Stop()
			expire = t.C
		}
		select {
		case w.sem <- struct{}{}:
		case <-expire:
			return false
		case <-closed:
			return false
		}
	}
	key := maphash.Bytes(w.seed, env)
	w.mu.Lock()
	w.pending[key]++
	w.mu.Unlock()
	return true
}

// active reports whether any slot is currently held (false for
// deliver-only clients, letting the release path skip envelope hashing).
func (w *inflightWindow) active() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.pending) > 0
}

// release frees a slot held for the envelope; envelopes the window never
// saw (other clients', TTC markers) are ignored.
func (w *inflightWindow) release(env []byte) {
	key := maphash.Bytes(w.seed, env)
	w.mu.Lock()
	n, ok := w.pending[key]
	if !ok {
		w.mu.Unlock()
		return
	}
	if n == 1 {
		delete(w.pending, key)
	} else {
		w.pending[key] = n - 1
	}
	w.mu.Unlock()
	<-w.sem
}
