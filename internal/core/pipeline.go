package core

import (
	"log/slog"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/consensus"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/transport"
)

// pipeline is everything that happens to a batch after consensus decided
// it (the node thread and the signing & sending threads of Figure 5):
//
//	seal → sign → decision gate → disseminate → persist
//
// The header is sealed sequentially on the event loop, signed on the
// parallel pool, and then handed to a per-channel sender that puts the
// blocks back into block-number order. The sender's drain is the ONE place
// the write-ahead rule is enforced: nothing leaves the node before the
// durability token of the decision that sealed it completes. The pipeline
// is also the replica's consensus.Durability backend, which is how it
// learns each decision's token. The block record itself is re-derivable
// (recovery re-seals blocks from the decision replay, and peers hold
// disseminated copies), so the drain disseminates as soon as the decision
// is durable and lets the block put complete in a later commit wave; the
// per-channel persist watermark records how far the durable block prefix
// actually reaches, and gates the consensus checkpoint save.
type pipeline struct {
	n *OrderingNode // identity, ledgers, frontends, back-fill

	// gate is the token of the newest decision handed to the log (nil
	// before the first one). Event-loop confined: the replica enqueues a
	// decision right before executing it, so at seal time the token
	// covers the sealing decision — and, the log being FIFO, every
	// earlier one.
	gate *storage.Token

	// replayed holds, per channel, the newest block put enqueued while
	// construction replays the decision log (settleReplay waits them out
	// in one go). Only touched during NewNode.
	replayed map[string]putMark

	// senders sequence block dissemination and persist per channel (see
	// blockSender). durableHeights is the per-channel persist watermark: the
	// block height proven durable by completed put tokens, seeded from the
	// recovered chain frontiers.
	sendMu         sync.Mutex
	senders        map[string]*blockSender
	durableHeights map[string]uint64

	// ckptMarks holds the pending checkpoint gates, oldest first (appended
	// on the event loop, consumed by the storage checkpoint worker).
	ckptMarkMu sync.Mutex
	ckptMarks  []ckptMark
}

func newPipeline(n *OrderingNode) *pipeline {
	return &pipeline{
		n:              n,
		replayed:       make(map[string]putMark),
		senders:        make(map[string]*blockSender),
		durableHeights: make(map[string]uint64),
	}
}

// putMark is a block put awaiting durability: once tok completes, the
// channel's blocks below height are on disk (puts are FIFO per channel).
type putMark struct {
	height uint64
	tok    fabric.DurableToken
}

// ckptMark records, for one consensus checkpoint, the per-channel block
// heights the checkpointed prefix of decisions implies. The checkpoint's
// durable save is gated on the persist watermark reaching these heights:
// recovery skips decisions at or below the checkpoint seq, so a checkpoint
// that landed before its blocks were durable would turn a crash into a
// permanent ledger gap when no peer holds a disseminated copy.
type ckptMark struct {
	seq     int64
	heights map[string]uint64
}

// blockTrace carries one block's stage stamps through the send drain.
// Zero when metrics are disabled.
type blockTrace struct {
	decided time.Time // when the block was sealed on the event loop
}

// observeStamp records now-minus-stamp into h, dropping stamps that are
// clearly not wall-clock times (several tests use the envelope timestamp
// field as a sequence counter): negative spans and spans over an hour are
// discarded rather than poisoning the percentiles.
func observeStamp(h *obs.Histogram, unixNano int64, now time.Time) {
	d := now.Sub(time.Unix(0, unixNano))
	if d < 0 || d > time.Hour {
		return
	}
	h.ObserveDuration(d)
}

// blockSender sequences one channel's dissemination + persist. Signing
// completes out of order on the pool, so completed blocks park in pending
// until every lower number has been handled; one worker at a time drains
// the contiguous run (draining guards it). The order is for the ledger,
// which appends block n only at height n, and for the write-ahead gate,
// which the drain waits out block by block in decision order; frontends
// need none (they collect copies in any order). epoch
// invalidates in-flight completions when a state transfer replaces the
// chains.
type blockSender struct {
	epoch    uint64
	started  bool
	next     uint64
	pending  map[uint64]pendingBlock
	draining bool
}

// pendingBlock is one signed block parked in a sender, with the
// durability token of the decision that sealed it and whether this node
// sends it whole (sendsWhole).
type pendingBlock struct {
	block *fabric.Block
	gate  *storage.Token
	trace blockTrace
	whole bool
}

// ---- consensus.Durability ----------------------------------------------

var _ consensus.Durability = (*pipeline)(nil)

// AppendDecision enqueues the decision on the node's commit log and keeps
// its token as the dissemination gate of every block it seals.
func (p *pipeline) AppendDecision(seq int64, batch *consensus.Batch) consensus.DecisionToken {
	p.gate = p.n.storage.AppendBatchAsync(seq, batch)
	return p.gate
}

func (p *pipeline) SaveCheckpoint(seq int64, snapshot []byte) error {
	return p.n.storage.SaveCheckpoint(seq, snapshot)
}

func (p *pipeline) SaveCheckpointAsync(seq int64, snapshot []byte) {
	p.n.storage.SaveCheckpointAsync(seq, snapshot)
}

// ---- seal and sign -----------------------------------------------------

// seal builds the channel's next block header (sequentially - the only
// ordering state is the previous header, exactly as Section 5.1 argues)
// and submits it to the signing/sending pool. Runs on the event loop.
// Persistence happens in the send drain, after the node's signature
// attached, so the durable ledger keeps the signature and fetched history
// is independently verifiable.
func (p *pipeline) seal(chain *chainState, batch [][]byte) {
	n, channel := p.n, chain.name
	block := fabric.NewBlock(chain.nextNumber, chain.prevHash, batch)
	chain.nextNumber++
	chain.prevHash = block.Header.Hash()
	n.statBlocks.Add(1)
	n.metrics.BlocksSealed.Inc()

	// Stage stamp: the decision instant, plus the first envelope's client
	// submission time (the broadcast-received anchor of the latency
	// trace), and the last envelope's, whose decision is the one the block
	// waited for. Only taken when metrics are on; implausible timestamps
	// (tests stuff sequence numbers into the field) are filtered at
	// observation time.
	var trace blockTrace
	if n.metrics.StageDecide != nil {
		trace.decided = time.Now()
		if ts, err := fabric.PeekTimestamp(batch[0]); err == nil {
			observeStamp(n.metrics.StageDecide, ts, trace.decided)
		}
		if ts, err := fabric.PeekTimestamp(batch[len(batch)-1]); err == nil {
			observeStamp(n.metrics.StageDecideLast, ts, trace.decided)
		}
	}

	if n.recovering {
		// Replaying the decision log: frontends saw the block before the
		// crash, so no signing or dissemination; the persist is a replay
		// duplicate unless the crash hit between the decision fsync and
		// the block's commit wave (those few tail blocks land unsigned —
		// readers authenticate them by hash-chain anchoring).
		if n.storage != nil {
			if tok := p.persist(channel, block); tok != nil {
				p.replayed[channel] = putMark{height: block.Header.Number + 1, tok: tok}
			}
		}
		return
	}

	if p.gate != nil {
		// The block's gate is the sealing decision, enqueued lazily: start
		// its commit wave now, so the fsync overlaps the signing.
		p.gate.Flush()
	}
	epoch := p.reserve(channel, block.Header.Number)
	// Who sends the block whole is fixed here, at the decision that sealed
	// it: a reconfiguration moves the whole senders with the decision that
	// changes the group, and every node agrees on each block's senders.
	pb := pendingBlock{block: block, gate: p.gate, trace: trace, whole: n.sendsWhole(block.Header.Number)}
	if n.cfg.DisableSigning {
		n.statSigned.Add(1)
		p.complete(channel, epoch, pb)
		return
	}
	signerID := string(n.ID().Addr())
	// An error means the pool closed during shutdown: the block is dropped.
	_ = n.signer.Sign(block.Header.Hash(), func(sig []byte, err error) {
		if err != nil {
			return
		}
		block.Signatures = []fabric.BlockSignature{{SignerID: signerID, Signature: sig}}
		n.statSigned.Add(1)
		p.complete(channel, epoch, pb)
	})
}

// settleReplay waits out the block puts the decision-log replay enqueued
// (one commit wave covers them all), so a freshly constructed node's
// persist watermark already stands at its ledger heights.
func (p *pipeline) settleReplay() {
	for channel, m := range p.replayed {
		p.markDurable(channel, m.height, m.tok, true)
	}
	p.replayed = nil
}

// reserve anchors the channel's send cursor at the first block sealed in
// the current epoch. Runs on the event loop, in seal order.
func (p *pipeline) reserve(channel string, number uint64) uint64 {
	p.sendMu.Lock()
	defer p.sendMu.Unlock()
	s, ok := p.senders[channel]
	if !ok {
		s = &blockSender{pending: make(map[uint64]pendingBlock)}
		p.senders[channel] = s
	}
	if !s.started {
		s.started = true
		s.next = number
	}
	return s.epoch
}

// ---- decision gate, disseminate, persist -------------------------------

// complete hands a signed block to the channel's sender; everything that
// is now contiguous waits out its decision's durability token and is then
// disseminated AND persisted, in block-number order. Runs on signing-pool
// workers (or the event loop with signing disabled). The drain is
// single-flight per channel: a worker that finds another one draining
// just deposits its block.
//
// The decision token is the ONLY durability gate: the paper's write-ahead
// rule requires the decision to be on disk before anything leaves the
// node, so the block put is fire-and-forget — a waiter on each run's last
// put token advances the persist watermark. Because decisions and blocks
// share one unified commit log, the wave that made the decision durable —
// the one this drain just waited out — is a single fsync, and the block
// records ride whichever single-fsync wave comes next.
func (p *pipeline) complete(channel string, epoch uint64, pb pendingBlock) {
	n := p.n
	p.sendMu.Lock()
	s, ok := p.senders[channel]
	if !ok || s.epoch != epoch {
		p.sendMu.Unlock()
		return // the chain was replaced since sealing
	}
	s.pending[pb.block.Header.Number] = pb
	if s.draining {
		p.sendMu.Unlock()
		return // the draining worker picks this block up
	}
	s.draining = true
	for {
		var out []pendingBlock
		for {
			pb, ok := s.pending[s.next]
			if !ok {
				break
			}
			delete(s.pending, s.next)
			s.next++
			out = append(out, pb)
		}
		if len(out) == 0 {
			s.draining = false
			p.sendMu.Unlock()
			return
		}
		p.sendMu.Unlock()
		var last putMark
		for _, pb := range out {
			b := pb.block
			if pb.gate != nil {
				// Write-ahead gate: the decision that sealed this block
				// must be on disk before the block is persisted or shown
				// to anyone. A failed token means the decision log is
				// poisoned (fsync fail-fast): the node must stop acking —
				// disseminating a block whose decision the kernel already
				// dropped would hand out history a restart cannot replay.
				// The drain parks permanently (s.draining stays set), so
				// no later block of this channel leaves the node either.
				if err := pb.gate.Wait(); err != nil {
					slog.Error("decision never became durable; halting dissemination",
						"node", int(n.ID()), "channel", channel, "block", b.Header.Number, "err", err)
					return
				}
			}
			// Stage stamp: the decision (and every earlier one) is durable
			// from here on — the decided→fsynced span ends, the
			// fsynced→disseminated span starts.
			var fsyncedAt time.Time
			if n.metrics.StageFsync != nil {
				fsyncedAt = time.Now()
				if !pb.trace.decided.IsZero() {
					n.metrics.StageFsync.ObserveDuration(fsyncedAt.Sub(pb.trace.decided))
				}
			}
			// Re-check the epoch per block: a state transfer that lands
			// while this worker is out invalidates the rest of the
			// extracted run.
			p.sendMu.Lock()
			stale := s.epoch != epoch
			p.sendMu.Unlock()
			if stale {
				return // the reset cleared the drain flag for the new epoch
			}
			if n.storage != nil {
				if tok := p.persist(channel, b); tok != nil {
					last = putMark{height: b.Header.Number + 1, tok: tok}
				}
			}
			p.disseminate(channel, b, pb.whole)
			if n.metrics.StageDisseminate != nil && !fsyncedAt.IsZero() {
				n.metrics.StageDisseminate.ObserveDuration(time.Since(fsyncedAt))
				n.metrics.DisseminatedLag.Set(time.Now().UnixNano())
			}
		}
		if last.tok != nil {
			// Advance the persist watermark off the drain: puts are FIFO
			// per channel, so the run's last token covers the whole run.
			// The watcher starts no wave: the run rides the next one.
			go p.markDurable(channel, last.height, last.tok, false)
		}
		if n.retention != nil {
			n.retention.MaybeCompact()
		}
		p.sendMu.Lock()
		if s.epoch != epoch {
			// The chain was rewritten while this worker was out: the
			// reset cleared the drain flag on behalf of the new epoch, so
			// this stale worker must not touch it.
			p.sendMu.Unlock()
			return
		}
	}
}

// persist enqueues a sealed block on the channel's durable ledger,
// signatures included, and returns the put's durability token (nil when
// nothing was enqueued: a replay duplicate, a parked gap block, or a
// rejected append). It is the one way a block this node sealed reaches
// disk — the drain calls it after the node's signature attached, the
// decision-log replay for the tail a crash left unpersisted — and only
// ever sees blocks this node sealed itself, so the envelope hashes are
// not re-verified. A block above the ledger height means state transfer
// jumped the chain past blocks this node never sealed — it is parked
// (blockSync.park). Same-channel calls are ordered by the drain's
// single-flight discipline; ledgerMu is held only for the enqueue, never
// across the fsync.
func (p *pipeline) persist(channel string, block *fabric.Block) fabric.DurableToken {
	n := p.n
	led := n.ledger(channel)
	n.ledgerMu.Lock()
	defer n.ledgerMu.Unlock()
	height := led.Height()
	switch {
	case block.Header.Number < height:
		return nil // replay duplicate
	case block.Header.Number > height:
		n.sync.park(channel, block)
		return nil
	}
	tok, err := led.AppendSealedAsync(block)
	if err != nil {
		slog.Error("persisting block failed",
			"node", int(n.ID()), "channel", channel, "block", block.Header.Number, "err", err)
		return nil
	}
	return tok
}

// disseminate sends a signed block to every registered frontend (the
// custom replier of Section 5.1) and keeps what it sent among the
// channel's recent blocks for a frontend that registers later. Unless
// whole, only the header and this node's signature go out: a frontend
// needs a quorum of votes on the header but one body. Runs on
// signing-pool workers. An equivocating byzantine node sends a
// conflicting, re-signed variant to half the frontends instead.
func (p *pipeline) disseminate(channel string, block *fabric.Block, whole bool) {
	n := p.n
	sent := block
	if !whole {
		sent = &fabric.Block{Header: block.Header, Signatures: block.Signatures}
	}
	payload := marshalBlockMsg(channel, sent)
	n.mu.Lock()
	r := n.recent[channel]
	if r == nil {
		r = new(recentBlocks)
		n.recent[channel] = r
	}
	r.add(payload)
	targets := make([]transport.Addr, 0, len(n.frontends))
	for addr := range n.frontends {
		targets = append(targets, addr)
	}
	n.mu.Unlock()
	var forged []byte
	if n.byz.Load().EquivocateDissemination {
		if fb := p.equivocationVariant(channel, block); fb != nil {
			forged = marshalBlockMsg(channel, fb)
			// Deterministic split: sorted target list, odd indices get the
			// conflicting block.
			sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
		}
	}
	for i, addr := range targets {
		if forged != nil && i%2 == 1 {
			n.conn.Send(addr, MsgBlock, forged)
			continue
		}
		n.conn.Send(addr, MsgBlock, payload)
	}
}

// equivocationVariant builds a conflicting block for the same number: same
// chain position, different envelopes, honestly re-signed by this node (an
// equivocator's signature is genuine — that is what makes equivocation
// dangerous). Returns nil when the node cannot sign.
func (p *pipeline) equivocationVariant(channel string, block *fabric.Block) *fabric.Block {
	n := p.n
	if n.cfg.Key == nil {
		return nil
	}
	envs := [][]byte{[]byte("equivocation:" + channel + ":" + strconv.FormatUint(block.Header.Number, 10))}
	fb := fabric.NewBlock(block.Header.Number, block.Header.PrevHash, envs)
	sig, err := n.cfg.Key.Sign(fb.Header.Hash().Bytes())
	if err != nil {
		return nil
	}
	fb.Signatures = []fabric.BlockSignature{{SignerID: string(n.ID().Addr()), Signature: sig}}
	return fb
}

// ---- persist watermark and checkpoint gate -----------------------------

// markDurable waits out a put token (nil: nothing to wait for) and raises
// the channel's persist watermark to the durable block height it proves.
// With start the wait starts the token's commit wave (Wait); without it
// the wait rides whichever wave comes next (Settle). A failed put means
// the log is poisoned — durability of the tail is lost (recovery
// re-derives it from the decision log or peers); report it loudly, once
// per failure.
func (p *pipeline) markDurable(channel string, height uint64, tok fabric.DurableToken, start bool) {
	n := p.n
	if tok != nil {
		var err error
		if start {
			err = tok.Wait()
		} else {
			err = tok.Settle()
		}
		if err != nil {
			slog.Error("persisting blocks failed",
				"node", int(n.ID()), "channel", channel, "below", height, "err", err)
			return
		}
	}
	p.sendMu.Lock()
	if height > p.durableHeights[channel] {
		p.durableHeights[channel] = height
		n.metrics.Watermark(channel).Set(int64(height))
	}
	p.sendMu.Unlock()
	// The watermark moved: a checkpoint save deferred on it may be
	// admissible now.
	n.storage.NudgeCheckpoint()
}

// watermark returns the channel's durable block height as proven by
// completed put tokens.
func (p *pipeline) watermark(channel string) uint64 {
	p.sendMu.Lock()
	defer p.sendMu.Unlock()
	return p.durableHeights[channel]
}

// minWatermark returns the minimum persist watermark across channels (-1
// before any channel exists).
func (p *pipeline) minWatermark() float64 {
	p.sendMu.Lock()
	defer p.sendMu.Unlock()
	min := -1.0
	for _, h := range p.durableHeights {
		if min < 0 || float64(h) < min {
			min = float64(h)
		}
	}
	return min
}

// markCheckpoint records the per-channel block heights a checkpoint at
// seq implies. Runs on the event loop.
func (p *pipeline) markCheckpoint(seq int64, heights map[string]uint64) {
	p.ckptMarkMu.Lock()
	p.ckptMarks = append(p.ckptMarks, ckptMark{seq: seq, heights: heights})
	p.ckptMarkMu.Unlock()
}

// checkpointCovered is the storage checkpoint gate: a checkpoint at seq may
// be saved only once every block its decisions sealed is durable (the
// persist watermark reached the heights recorded at checkpoint time).
// Called from the storage checkpoint worker; markDurable nudges the
// worker whenever the watermark moves.
func (p *pipeline) checkpointCovered(seq int64) bool {
	p.ckptMarkMu.Lock()
	var mark *ckptMark
	for i := len(p.ckptMarks) - 1; i >= 0; i-- {
		if p.ckptMarks[i].seq <= seq {
			mark = &p.ckptMarks[i]
			break
		}
	}
	p.ckptMarkMu.Unlock()
	if mark == nil {
		return true // no mark recorded for it (bridging path); nothing to gate
	}
	for channel, h := range mark.heights {
		if p.watermark(channel) < h {
			return false
		}
	}
	// Covered: marks at or below seq are spent (a checkpoint subsumes every
	// older one).
	p.ckptMarkMu.Lock()
	cut := 0
	for cut < len(p.ckptMarks) && p.ckptMarks[cut].seq <= seq {
		cut++
	}
	p.ckptMarks = append([]ckptMark(nil), p.ckptMarks[cut:]...)
	p.ckptMarkMu.Unlock()
	return true
}

// ---- chain rewrites and drain ------------------------------------------

// invalidate drops a sender's in-flight dissemination after its chain
// state was rewritten; the next sealed block re-anchors the cursor.
func (s *blockSender) invalidate() {
	s.epoch++
	s.started = false
	s.pending = make(map[uint64]pendingBlock)
	// A stale drain worker may still be out disseminating; it observes the
	// epoch bump and exits without touching the flag again.
	s.draining = false
}

// resetAll invalidates every sender (a state transfer replaced the chains
// wholesale).
func (p *pipeline) resetAll() {
	p.sendMu.Lock()
	defer p.sendMu.Unlock()
	for _, s := range p.senders {
		s.invalidate()
	}
}
