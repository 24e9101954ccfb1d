package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/fabric"
)

// SoloConfig parameterizes the solo orderer.
type SoloConfig struct {
	// BlockSize bounds envelopes per block.
	BlockSize int
	// BlockTimeout cuts partial blocks.
	BlockTimeout time.Duration
	// SigningWorkers sizes the signing pool.
	SigningWorkers int
	// Key signs block headers. Required.
	Key *cryptoutil.KeyPair
}

// SoloOrderer is HLF's centralized, non-replicated ordering service
// (Section 3: "used mostly for testing the platform... a single point of
// failure"). It implements the same AtomicBroadcast surface as the
// frontend (typed Broadcast acks, seekable Deliver) so applications can
// swap orderers, and serves as the no-replication baseline in the ablation
// benchmarks.
type SoloOrderer struct {
	cfg SoloConfig

	signer *cryptoutil.SigningPool

	mu      sync.Mutex
	chains  map[string]*chainState
	subs    map[string][]*feSub
	seq     map[string]*soloSequencer
	history map[string][]*fabric.Block // retained delivered tail, contiguous
	closed  bool

	statEnvelopes atomic.Uint64
	statBlocks    atomic.Uint64

	done chan struct{}
	wg   sync.WaitGroup
}

// soloSequencer re-orders asynchronously signed blocks back into
// block-number order before delivery (the signing pool may complete out of
// order).
type soloSequencer struct {
	next    uint64
	pending map[uint64]*fabric.Block
}

// NewSoloOrderer starts a solo orderer.
func NewSoloOrderer(cfg SoloConfig) (*SoloOrderer, error) {
	if cfg.Key == nil {
		return nil, errors.New("solo orderer: nil signing key")
	}
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = 10
	}
	if cfg.SigningWorkers <= 0 {
		cfg.SigningWorkers = 16
	}
	signer, err := cryptoutil.NewSigningPool(cfg.Key, cfg.SigningWorkers)
	if err != nil {
		return nil, fmt.Errorf("solo orderer: %w", err)
	}
	s := &SoloOrderer{
		cfg:     cfg,
		signer:  signer,
		chains:  make(map[string]*chainState),
		subs:    make(map[string][]*feSub),
		seq:     make(map[string]*soloSequencer),
		history: make(map[string][]*fabric.Block),
		done:    make(chan struct{}),
	}
	if cfg.BlockTimeout > 0 {
		s.wg.Add(1)
		go s.timeoutLoop()
	}
	return s, nil
}

var _ fabric.Orderer = (*SoloOrderer)(nil)

// Broadcast orders one envelope (no replication, no consensus: the solo
// orderer is the trivial total order).
func (s *SoloOrderer) Broadcast(env *fabric.Envelope) fabric.BroadcastStatus {
	if env == nil || env.ChannelID == "" {
		return fabric.StatusBadRequest
	}
	return s.BroadcastRaw(env.Marshal())
}

// BroadcastRaw orders an already-marshalled envelope.
func (s *SoloOrderer) BroadcastRaw(raw []byte) fabric.BroadcastStatus {
	channel, err := fabric.ChannelOf(raw)
	if err != nil {
		return fabric.StatusBadRequest
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fabric.StatusServiceUnavailable
	}
	chain := s.chainLocked(channel)
	s.statEnvelopes.Add(1)
	batch := chain.cutter.Append(raw)
	if batch == nil {
		s.mu.Unlock()
		return fabric.StatusSuccess
	}
	block := s.sealLocked(channel, chain, batch)
	s.mu.Unlock()
	s.sign(channel, block)
	return fabric.StatusSuccess
}

func (s *SoloOrderer) chainLocked(channel string) *chainState {
	chain, ok := s.chains[channel]
	if !ok {
		chain = &chainState{
			name: channel,
			cutter: fabric.NewBlockCutter(fabric.CutterConfig{
				MaxEnvelopes: s.cfg.BlockSize,
				Timeout:      s.cfg.BlockTimeout,
			}),
		}
		s.chains[channel] = chain
	}
	return chain
}

// sealLocked builds the next block. Called with the mutex held. The
// sequencer is created here, in seal order, so its cursor starts at the
// channel's first sealed number regardless of which signature completes
// first.
func (s *SoloOrderer) sealLocked(channel string, chain *chainState, batch [][]byte) *fabric.Block {
	block := fabric.NewBlock(chain.nextNumber, chain.prevHash, batch)
	chain.nextNumber++
	chain.prevHash = block.Header.Hash()
	s.statBlocks.Add(1)
	if _, ok := s.seq[channel]; !ok {
		s.seq[channel] = &soloSequencer{
			next:    block.Header.Number,
			pending: make(map[uint64]*fabric.Block),
		}
	}
	return block
}

// sign hands a sealed block to the signing pool; signing completes
// asynchronously, and completed blocks are re-sequenced into block-number
// order before delivery. Called WITHOUT the mutex: Sign blocks while the
// pool's queue is full, and the workers that would empty it need the
// mutex in deliverSigned.
func (s *SoloOrderer) sign(channel string, block *fabric.Block) {
	// An error means the pool closed: the orderer is shutting down.
	_ = s.signer.Sign(block.Header.Hash(), func(sig []byte, err error) {
		if err != nil {
			return
		}
		block.Signatures = []fabric.BlockSignature{{SignerID: "solo", Signature: sig}}
		s.deliverSigned(channel, block)
	})
}

// deliverSigned hands one signed block to the channel's sequencer and
// delivers everything that became contiguous: append to the retained
// history and fan out to the live subscriptions. The queue puts happen
// under the mutex — puts never block (unbounded queues) and two signing
// workers completing back-to-back would otherwise race their put loops
// and enqueue out of order.
func (s *SoloOrderer) deliverSigned(channel string, block *fabric.Block) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sq := s.seq[channel] // created at seal time, in seal order
	sq.pending[block.Header.Number] = block
	hist := s.history[channel]
	for {
		b, ok := sq.pending[sq.next]
		if !ok {
			break
		}
		delete(sq.pending, sq.next)
		sq.next++
		hist = append(hist, b)
		for _, sub := range s.subs[channel] {
			sub.q.put(b)
		}
	}
	// Trim with slack so the copy amortizes across deliveries.
	if over := len(hist) - DefaultHistoryLimit; over > DefaultHistoryLimit/4 {
		hist = append(hist[:0:0], hist[over:]...)
	}
	s.history[channel] = hist
}

// Deliver opens a block stream for a channel positioned by seek. History
// is served from the retained in-memory window (the solo orderer keeps no
// durable ledger); a seek below the window fails the stream with
// fabric.ErrBlockNotFound.
func (s *SoloOrderer) Deliver(channel string, seek fabric.SeekInfo) (*fabric.BlockStream, error) {
	if err := seek.Validate(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fabric.ErrServiceUnavailable
	}
	hist := append([]*fabric.Block(nil), s.history[channel]...)
	q := newBlockQueue()
	stream := fabric.NewBlockStream()
	s.subs[channel] = append(s.subs[channel], &feSub{q: q, stream: stream})
	s.wg.Add(1)
	s.mu.Unlock()

	go s.deliverLoop(channel, seek, hist, q, stream)
	return stream, nil
}

// deliverLoop replays the retained history then tails live blocks through
// the shared streamDeliverer. The solo orderer has no history source:
// blocks below the retained window fail the stream with
// fabric.ErrBlockNotFound.
func (s *SoloOrderer) deliverLoop(channel string, seek fabric.SeekInfo, hist []*fabric.Block, q *blockQueue, stream *fabric.BlockStream) {
	defer s.wg.Done()
	defer s.dropSub(channel, q, stream)
	d := &streamDeliverer{
		seek:      seek,
		hist:      hist,
		q:         q,
		stream:    stream,
		closedErr: fabric.ErrServiceUnavailable,
	}
	d.run()
}

func (s *SoloOrderer) dropSub(channel string, q *blockQueue, stream *fabric.BlockStream) {
	s.mu.Lock()
	subs := s.subs[channel]
	for i, sub := range subs {
		if sub.q == q {
			s.subs[channel] = append(subs[:i], subs[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
	q.close()
	stream.Close(nil)
}

// Stats returns (envelopes ordered, blocks cut).
func (s *SoloOrderer) Stats() (envelopes, blocks uint64) {
	return s.statEnvelopes.Load(), s.statBlocks.Load()
}

func (s *SoloOrderer) timeoutLoop() {
	defer s.wg.Done()
	interval := s.cfg.BlockTimeout / 2
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-s.done:
			return
		case now := <-ticker.C:
			var channels []string
			var sealed []*fabric.Block
			s.mu.Lock()
			for channel, chain := range s.chains {
				if batch := chain.cutter.CutIfExpired(now); batch != nil {
					channels = append(channels, channel)
					sealed = append(sealed, s.sealLocked(channel, chain, batch))
				}
			}
			s.mu.Unlock()
			for i, block := range sealed {
				s.sign(channels[i], block)
			}
		}
	}
}

// Close stops the orderer and its subscribers' streams.
func (s *SoloOrderer) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	var subs []*feSub
	for _, ss := range s.subs {
		subs = append(subs, ss...)
	}
	s.mu.Unlock()
	close(s.done)
	s.signer.Close() // waits for in-flight signatures
	for _, sub := range subs {
		sub.stream.Cancel()
		sub.q.close()
	}
	s.wg.Wait()
}
