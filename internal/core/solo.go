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
	logs   *releaseLogs // signed blocks per channel, and the Deliver streams reading them

	mu     sync.Mutex
	chains map[string]*chainState
	closed bool

	statEnvelopes atomic.Uint64
	statBlocks    atomic.Uint64

	done chan struct{}
	wg   sync.WaitGroup
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
		cfg:    cfg,
		signer: signer,
		logs:   newReleaseLogs(nil, fabric.ErrServiceUnavailable),
		chains: make(map[string]*chainState),
		done:   make(chan struct{}),
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
	block := s.sealLocked(chain, batch)
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
		s.logs.log(channel).start(chain.nextNumber)
	}
	return chain
}

// sealLocked builds the next block. Called with the mutex held.
func (s *SoloOrderer) sealLocked(chain *chainState, batch [][]byte) *fabric.Block {
	block := fabric.NewBlock(chain.nextNumber, chain.prevHash, batch)
	chain.nextNumber++
	chain.prevHash = block.Header.Hash()
	s.statBlocks.Add(1)
	return block
}

// sign hands a sealed block to the signing pool; signing completes
// asynchronously, and the channel's release log puts completed blocks
// back into block-number order. Called WITHOUT the mutex: Sign blocks
// while the pool's queue is full.
func (s *SoloOrderer) sign(channel string, block *fabric.Block) {
	log := s.logs.log(channel)
	// An error means the pool closed: the orderer is shutting down.
	_ = s.signer.Sign(block.Header.Hash(), func(sig []byte, err error) {
		if err != nil {
			return
		}
		block.Signatures = []fabric.BlockSignature{{SignerID: "solo", Signature: sig}}
		log.put(block)
	})
}

// Deliver opens a block stream for a channel positioned by seek (see
// releaseLogs.deliver). The solo orderer keeps no durable ledger: a
// stream below its retained window ends with fabric.ErrBlockNotFound.
func (s *SoloOrderer) Deliver(channel string, seek fabric.SeekInfo) (*fabric.BlockStream, error) {
	return s.logs.deliver(channel, seek)
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
					sealed = append(sealed, s.sealLocked(chain, batch))
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
	s.mu.Unlock()
	close(s.done)
	s.signer.Close() // waits for in-flight signatures
	s.logs.close()
	s.wg.Wait()
}
