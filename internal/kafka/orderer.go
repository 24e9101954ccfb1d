package kafka

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/fabric"
)

// OSNConfig parameterizes a Kafka-backed ordering service node.
type OSNConfig struct {
	// ID names the node (its block signatures carry this identity).
	ID string
	// Cluster is the Kafka cluster ordering the envelopes.
	Cluster *Cluster
	// BlockSize bounds envelopes per block.
	BlockSize int
	// BlockTimeout cuts partial blocks through ordered time-to-cut
	// markers, exactly like Fabric's Kafka orderer posts TTC messages to
	// the partition.
	BlockTimeout time.Duration
	// PollInterval is the consume-loop polling period (default 2ms).
	PollInterval time.Duration
	// SigningWorkers sizes the signing pool (default 4).
	SigningWorkers int
	// Key signs block headers. Required.
	Key *cryptoutil.KeyPair
}

// ttcMarker prefixes time-to-cut records in the partition.
const ttcMarker = "\x00TTC\x00"

// OSN is a Kafka-based ordering service node: it produces envelopes into a
// channel's partition and consumes the partition to cut blocks. Every OSN
// consuming the same partition builds the identical chain, because cutting
// depends only on the record sequence (including TTC markers).
type OSN struct {
	cfg OSNConfig

	signer *cryptoutil.SigningPool

	mu      sync.Mutex
	chains  map[string]*osnChain
	subs    map[string][]chan *fabric.Block
	sealing sync.WaitGroup
	closed  bool

	statEnvelopes atomic.Uint64
	statBlocks    atomic.Uint64

	done chan struct{}
	wg   sync.WaitGroup
}

type osnChain struct {
	offset     int64 // next partition offset to consume
	nextNumber uint64
	prevHash   cryptoutil.Digest
	cutter     *fabric.BlockCutter
	ttcSent    uint64 // block number the last TTC marker targeted (+1)
}

// NewOSN starts an ordering service node over the cluster.
func NewOSN(cfg OSNConfig) (*OSN, error) {
	if cfg.ID == "" {
		return nil, errors.New("kafka osn: empty id")
	}
	if cfg.Cluster == nil {
		return nil, errors.New("kafka osn: nil cluster")
	}
	if cfg.Key == nil {
		return nil, errors.New("kafka osn: nil key")
	}
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = 10
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 2 * time.Millisecond
	}
	if cfg.SigningWorkers <= 0 {
		cfg.SigningWorkers = 4
	}
	signer, err := cryptoutil.NewSigningPool(cfg.Key, cfg.SigningWorkers)
	if err != nil {
		return nil, fmt.Errorf("kafka osn: %w", err)
	}
	o := &OSN{
		cfg:    cfg,
		signer: signer,
		chains: make(map[string]*osnChain),
		subs:   make(map[string][]chan *fabric.Block),
		done:   make(chan struct{}),
	}
	o.wg.Add(1)
	go o.consumeLoop()
	return o, nil
}

var _ fabric.Broadcaster = (*OSN)(nil)

// Broadcast produces one envelope into its channel's partition.
func (o *OSN) Broadcast(env *fabric.Envelope) fabric.BroadcastStatus {
	if env == nil {
		return fabric.StatusBadRequest
	}
	return o.BroadcastRaw(env.Marshal())
}

// BroadcastRaw produces an already-marshalled envelope.
func (o *OSN) BroadcastRaw(raw []byte) fabric.BroadcastStatus {
	channel, err := fabric.ChannelOf(raw)
	if err != nil {
		return fabric.StatusBadRequest
	}
	o.track(channel)
	if _, err := o.cfg.Cluster.Produce(channel, raw); err != nil {
		return fabric.StatusServiceUnavailable
	}
	return fabric.StatusSuccess
}

// track ensures the consume loop follows the channel.
func (o *OSN) track(channel string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, ok := o.chains[channel]; !ok {
		o.chains[channel] = &osnChain{
			cutter: fabric.NewBlockCutter(fabric.CutterConfig{
				MaxEnvelopes: o.cfg.BlockSize,
			}),
		}
	}
}

// Deliver returns the ordered block stream of a channel. The buffer is
// generous; subscribers must keep draining.
func (o *OSN) Deliver(channel string) <-chan *fabric.Block {
	o.track(channel)
	ch := make(chan *fabric.Block, 1024)
	o.mu.Lock()
	o.subs[channel] = append(o.subs[channel], ch)
	o.mu.Unlock()
	return ch
}

// Stats returns (envelopes consumed, blocks cut).
func (o *OSN) Stats() (envelopes, blocks uint64) {
	return o.statEnvelopes.Load(), o.statBlocks.Load()
}

func (o *OSN) consumeLoop() {
	defer o.wg.Done()
	ticker := time.NewTicker(o.cfg.PollInterval)
	defer ticker.Stop()
	for {
		select {
		case <-o.done:
			return
		case <-ticker.C:
			o.pollOnce()
		}
	}
}

func (o *OSN) pollOnce() {
	o.mu.Lock()
	channels := make([]string, 0, len(o.chains))
	for ch := range o.chains {
		channels = append(channels, ch)
	}
	o.mu.Unlock()

	now := time.Now()
	for _, channel := range channels {
		o.mu.Lock()
		chain := o.chains[channel]
		offset := chain.offset
		o.mu.Unlock()

		records, err := o.cfg.Cluster.Consume(channel, offset)
		if err != nil {
			continue // no leader right now; retry next poll
		}
		for _, rec := range records {
			o.processRecord(channel, chain, rec)
		}
		o.mu.Lock()
		chain.offset = offset + int64(len(records))
		// Timeout cutting via ordered markers: if the oldest pending
		// envelope aged past the timeout and no marker for this block is
		// in flight, post one. All OSNs may post markers; stale ones are
		// skipped deterministically.
		if o.cfg.BlockTimeout > 0 {
			if oldest, ok := chain.cutter.OldestPending(); ok &&
				now.Sub(oldest) >= o.cfg.BlockTimeout &&
				chain.ttcSent <= chain.nextNumber {
				chain.ttcSent = chain.nextNumber + 1
				marker := encodeTTC(chain.nextNumber)
				o.mu.Unlock()
				if _, err := o.cfg.Cluster.Produce(channel, marker); err == nil {
					continue
				}
				o.mu.Lock()
				chain.ttcSent = chain.nextNumber // retry later
			}
		}
		o.mu.Unlock()
	}
}

func (o *OSN) processRecord(channel string, chain *osnChain, rec []byte) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if number, ok := decodeTTC(rec); ok {
		if number == chain.nextNumber {
			if batch := chain.cutter.Cut(); batch != nil {
				o.sealLocked(channel, chain, batch)
			}
		}
		return
	}
	o.statEnvelopes.Add(1)
	if batch := chain.cutter.Append(rec); batch != nil {
		o.sealLocked(channel, chain, batch)
	}
}

func (o *OSN) sealLocked(channel string, chain *osnChain, batch [][]byte) {
	block := fabric.NewBlock(chain.nextNumber, chain.prevHash, batch)
	chain.nextNumber++
	chain.prevHash = block.Header.Hash()
	o.statBlocks.Add(1)

	subs := make([]chan *fabric.Block, len(o.subs[channel]))
	copy(subs, o.subs[channel])
	o.sealing.Add(1)
	err := o.signer.Sign(block.Header.Hash(), func(sig []byte, err error) {
		defer o.sealing.Done()
		if err != nil {
			return
		}
		block.Signatures = []fabric.BlockSignature{{SignerID: o.cfg.ID, Signature: sig}}
		for _, ch := range subs {
			select {
			case ch <- block:
			default: // subscriber too slow
			}
		}
	})
	if err != nil {
		o.sealing.Done()
	}
}

// Close stops the node.
func (o *OSN) Close() {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return
	}
	o.closed = true
	o.mu.Unlock()
	close(o.done)
	o.wg.Wait()
	o.sealing.Wait()
	o.signer.Close()
}

func encodeTTC(blockNumber uint64) []byte {
	buf := make([]byte, len(ttcMarker)+8)
	copy(buf, ttcMarker)
	for i := 0; i < 8; i++ {
		buf[len(ttcMarker)+i] = byte(blockNumber >> (8 * (7 - i)))
	}
	return buf
}

func decodeTTC(rec []byte) (uint64, bool) {
	if len(rec) != len(ttcMarker)+8 || string(rec[:len(ttcMarker)]) != ttcMarker {
		return 0, false
	}
	var n uint64
	for i := 0; i < 8; i++ {
		n = n<<8 | uint64(rec[len(ttcMarker)+i])
	}
	return n, true
}
