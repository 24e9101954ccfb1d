package storage

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/cryptoutil"
	"repro/internal/fabric"
	"repro/internal/storage/retention"
	"repro/internal/wire"
)

// BlockStore persists sealed blocks, per channel, as typed block records
// in the unified commit log it shares with the decision log (one record
// per block, wire-encoded with the channel name and whatever node
// signatures the block carries). It is the durable mirror of a
// fabric.Ledger, bounded by retention: a snapshot manifest records, per
// channel, the first retained block, its previous-hash anchor, and the
// block-number → log-record index of the retained window; compaction
// rewrites the manifest and drops whole shared-log segments — but only
// segments that are dead under the two-condition rule (no live block
// record AND wholly behind the consensus checkpoint's decision floor),
// because decisions and blocks now interleave in the same segment files.
// Recovery is a single typed walk driven by the owner (NodeStorage, or
// OpenBlockStore standalone): the manifest seeds the read index without
// decoding the retained window, block records above the manifest frontier
// rebuild the index tail, channel-meta records replay rebases, and
// decision records are someone else's (skipped here after a one-byte
// peek). Reads go through the log's per-segment byte-offset index: a
// single positioned read per block, not a decode-from-zero prefix scan.
type BlockStore struct {
	dir     string
	wal     *WAL
	ownsWAL bool

	// decisionFloor reports the decision-liveness floor of the shared
	// log (every record below it holds no decision the newest consensus
	// checkpoint has not subsumed). NodeStorage wires it; a standalone
	// store (no decisions in its log) leaves it nil, which means "no
	// decision constraint".
	decisionFloor func() uint64

	mu   sync.Mutex
	cond *sync.Cond // signaled when an in-flight Put finishes indexing

	heights map[string]uint64            // next expected block number per channel
	floors  map[string]uint64            // first retained block number per channel
	anchors map[string]cryptoutil.Digest // PrevHash of the block at the floor
	// index[ch][i] is the shared-log record index of block floors[ch]+i.
	index map[string][]uint64
	// chanBytes[ch] is the framed on-disk size of the channel's retained
	// block records: incremented per committed put, recomputed from the
	// offset tables at recovery and after compaction. The weighted
	// retention bytes budget reads it.
	chanBytes map[string]int64

	// Recovery-walk state, cleared by finishRecovery.
	manifestFrontier uint64
	seeded           map[string]int                // manifest-indexed blocks per channel
	lastReplayed     map[string]fabric.BlockHeader // newest walked block per channel

	recovered map[string]ChainInfo
}

// ChainInfo is one channel's recovered chain frontier: enough to restore
// a fabric.Ledger without loading a single block into memory.
type ChainInfo struct {
	// Floor is the first retained block number (0 when never compacted).
	Floor uint64
	// Anchor is the PrevHash of block Floor (zero when Floor is 0).
	Anchor cryptoutil.Digest
	// Height is the next block number to append.
	Height uint64
	// LastHash is the header hash of block Height-1 (zero when the
	// retained window is empty).
	LastHash cryptoutil.Digest
}

// newBlockStore builds the index layer over an already-open shared log.
// The caller drives recovery: seedFromManifest, then a typed walk feeding
// applyRecord, then finishRecovery.
func newBlockStore(dir string, wal *WAL, ownsWAL bool) *BlockStore {
	s := &BlockStore{
		dir:       dir,
		wal:       wal,
		ownsWAL:   ownsWAL,
		heights:   make(map[string]uint64),
		floors:    make(map[string]uint64),
		anchors:   make(map[string]cryptoutil.Digest),
		index:     make(map[string][]uint64),
		chanBytes: make(map[string]int64),
		seeded:    make(map[string]int),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// OpenBlockStore opens a standalone store that owns its log in cfg.Dir
// (benchmarks and block-only deployments; an ordering node's store is
// opened by NodeStorage over the node's unified log instead). Recovery is
// the same typed walk NodeStorage runs: manifest seed, record walk,
// seam verification, then re-application of any segment deletions a
// crash interrupted.
func OpenBlockStore(cfg WALConfig) (*BlockStore, error) {
	wal, err := OpenWAL(cfg)
	if err != nil {
		return nil, err
	}
	s := newBlockStore(cfg.Dir, wal, true)
	wal.onCommit = s.committed
	if _, err := s.seedFromManifest(); err != nil {
		wal.Close()
		return nil, err
	}
	err = wal.Replay(func(idx uint64, rec []byte) error {
		return s.applyRecord(idx, rec)
	})
	if err == nil {
		err = s.finishRecovery()
	}
	if err == nil {
		err = s.prune()
	}
	if err != nil {
		wal.Close()
		return nil, err
	}
	return s, nil
}

// seedFromManifest loads the retention manifest (when one exists) and
// seeds floors, anchors, heights, and the read index from it, without
// decoding a single block. It returns the manifest frontier: the walk
// skips block records at or below it. Segment deletions a crash
// interrupted are re-applied here from the manifest's own liveness
// summary — the prefix of segments the snapshot already declared dead
// under the two-condition rule goes before the walk even starts; the
// post-walk prune then reclaims anything that became dead since.
func (s *BlockStore) seedFromManifest() (frontier uint64, err error) {
	manifest, found, err := retention.LoadManifest(s.wal.cfg.FS, s.dir)
	if err != nil {
		return 0, err
	}
	if !found {
		return 0, nil
	}
	if last := s.wal.LastIndex(); manifest.Frontier > last {
		return 0, fmt.Errorf("%w: manifest frontier %d past log end %d",
			ErrCorrupt, manifest.Frontier, last)
	}
	for channel, ch := range manifest.Channels {
		s.floors[channel] = ch.Floor
		s.anchors[channel] = ch.Anchor
		s.heights[channel] = ch.Floor + uint64(len(ch.Index))
		s.index[channel] = append([]uint64(nil), ch.Index...)
		s.seeded[channel] = len(ch.Index)
	}
	s.manifestFrontier = manifest.Frontier
	keep := uint64(0)
	for _, seg := range manifest.Segments {
		if !seg.Dead(manifest.DecisionFloor) {
			break // liveness pins this segment (and prefix pruning stops)
		}
		keep = seg.Last + 1
	}
	if keep > 0 {
		if err := s.wal.PruneTo(keep); err != nil {
			return 0, err
		}
	}
	return manifest.Frontier, nil
}

// applyRecord is the block store's half of the typed recovery walk: block
// records above the manifest frontier rebuild the index tail (skipping a
// channel's pruned prefix by block number), channel-meta records replay
// rebases, and decision records are skipped after the one-byte kind peek
// (the owner's walk consumes those). Records of a channel's pruned
// prefix that survive inside kept segments (whole-segment pruning) are
// skipped by block number.
func (s *BlockStore) applyRecord(idx uint64, rec []byte) error {
	if len(rec) == 0 {
		return fmt.Errorf("%w: empty record %d", ErrCorrupt, idx)
	}
	switch rec[0] {
	case recDecision:
		return nil // the decision log's walk handles these
	case recBlock:
		if idx <= s.manifestFrontier {
			return nil // manifest-covered (or pruned): no decode needed
		}
		channel, block, err := decodeBlockRecord(rec)
		if err != nil {
			return err
		}
		num := block.Header.Number
		if num < s.floors[channel] {
			return nil // below the retention floor: pruned, awaiting deletion
		}
		if num != s.heights[channel] {
			return fmt.Errorf("%w: channel %q block %d, want %d",
				ErrCorrupt, channel, num, s.heights[channel])
		}
		if prev, ok := s.lastReplayed[channel]; ok {
			if block.Header.PrevHash != prev.Hash() {
				return fmt.Errorf("%w: channel %q block %d breaks the hash chain",
					ErrCorrupt, channel, num)
			}
		}
		s.index[channel] = append(s.index[channel], idx)
		s.heights[channel] = num + 1
		if s.lastReplayed == nil {
			s.lastReplayed = make(map[string]fabric.BlockHeader)
		}
		// The header only: the envelopes are views of replaySegment's
		// whole-segment buffer, which a kept block would pin.
		s.lastReplayed[channel] = block.Header
		return nil
	case recChannelMeta:
		if idx <= s.manifestFrontier {
			return nil // a newer manifest already reflects this rebase
		}
		channel, floor, anchor, err := decodeRebaseRecord(rec)
		if err != nil {
			return err
		}
		if floor < s.heights[channel] {
			return nil // stale marker from before a newer manifest
		}
		s.floors[channel] = floor
		s.heights[channel] = floor
		s.anchors[channel] = anchor
		s.index[channel] = nil
		s.seeded[channel] = 0
		delete(s.lastReplayed, channel)
		return nil
	default:
		return fmt.Errorf("%w: record %d has unknown kind 0x%02x", ErrCorrupt, idx, rec[0])
	}
}

// finishRecovery verifies the seams the seeded index skipped (floor
// anchor, manifest-to-replay linkage) with two positioned reads per
// channel, computes the chain frontiers, and clears the walk state.
func (s *BlockStore) finishRecovery() error {
	s.recovered = make(map[string]ChainInfo, len(s.heights))
	for channel, height := range s.heights {
		info := ChainInfo{
			Floor:  s.floors[channel],
			Anchor: s.anchors[channel],
			Height: height,
		}
		n := s.seeded[channel]
		last, walked := s.lastReplayed[channel]
		if n > 0 {
			first, err := s.readOne(channel, s.index[channel][0])
			if err != nil {
				return err
			}
			if first.Header.Number != info.Floor {
				return fmt.Errorf("%w: channel %q first retained block is %d, manifest says %d",
					ErrCorrupt, channel, first.Header.Number, info.Floor)
			}
			if info.Floor > 0 && first.Header.PrevHash != info.Anchor {
				return fmt.Errorf("%w: channel %q block %d does not link into the manifest anchor",
					ErrCorrupt, channel, info.Floor)
			}
			tip, err := s.readOne(channel, s.index[channel][n-1])
			if err != nil {
				return err
			}
			if tip.Header.Number != info.Floor+uint64(n-1) {
				return fmt.Errorf("%w: channel %q manifest index is inconsistent at block %d",
					ErrCorrupt, channel, tip.Header.Number)
			}
			if n < len(s.index[channel]) {
				// Seam: the first replayed block must link into the
				// newest manifest-indexed block.
				b, err := s.readOne(channel, s.index[channel][n])
				if err != nil {
					return err
				}
				if b.Header.PrevHash != tip.Header.Hash() {
					return fmt.Errorf("%w: channel %q block %d breaks the hash chain at the manifest seam",
						ErrCorrupt, channel, b.Header.Number)
				}
			}
		} else if walked && info.Floor > 0 {
			// A rebase left no retained window; the first appended block
			// carried the anchor check at append time, re-verify here.
			firstIdx := s.index[channel][0]
			first, err := s.readOne(channel, firstIdx)
			if err != nil {
				return err
			}
			if first.Header.PrevHash != info.Anchor {
				return fmt.Errorf("%w: channel %q block %d does not link into the rebase anchor",
					ErrCorrupt, channel, first.Header.Number)
			}
		}
		if walked {
			info.LastHash = last.Hash()
		} else if n > 0 {
			tip, err := s.readOne(channel, s.index[channel][n-1])
			if err != nil {
				return err
			}
			info.LastHash = tip.Header.Hash()
		}
		s.recovered[channel] = info
	}
	for channel, idxs := range s.index {
		s.chanBytes[channel] = s.wal.RecordSizeBytes(idxs)
	}
	s.lastReplayed = nil
	s.seeded = make(map[string]int)
	return nil
}

// readOne reads and decodes a single block record by log index.
func (s *BlockStore) readOne(channel string, idx uint64) (*fabric.Block, error) {
	var out *fabric.Block
	err := s.wal.ReadRecords([]uint64{idx}, func(_ uint64, rec []byte) error {
		ch, block, err := decodeBlockRecord(rec)
		if err != nil {
			return err
		}
		if ch != channel {
			return fmt.Errorf("%w: record %d holds channel %q, want %q",
				ErrCorrupt, idx, ch, channel)
		}
		out = block
		return nil
	})
	if err != nil {
		return nil, s.annotateCorrupt(err, channel)
	}
	return out, nil
}

// annotateCorrupt stamps the block coordinates (channel, block number)
// onto a *RecordCorruptError the WAL raised from a raw index, so the
// self-healing layer knows which block to re-fetch. Must not hold s.mu.
func (s *BlockStore) annotateCorrupt(err error, channel string) error {
	var rce *RecordCorruptError
	if !errors.As(err, &rce) || rce.Channel != "" {
		return err
	}
	rce.Channel = channel
	s.mu.Lock()
	idxs := s.index[channel]
	floor := s.floors[channel]
	for i, idx := range idxs {
		if idx == rce.Index {
			rce.Num = floor + uint64(i)
			break
		}
	}
	s.mu.Unlock()
	return err
}

// Chains returns the chain frontiers recovered at open, keyed by channel,
// and releases the store's reference to them. Blocks persisted after
// open are not included.
func (s *BlockStore) Chains() map[string]ChainInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.recovered
	s.recovered = nil
	return out
}

// Height returns the next expected block number for a channel.
func (s *BlockStore) Height(channel string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.heights[channel]
}

// Floor returns the channel's retention floor: the first block number
// still served; everything below it was compacted away.
func (s *BlockStore) Floor(channel string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.floors[channel]
}

// Put durably appends a sealed block (with whatever signatures it
// carries), blocking until its group commit fsynced. A block below the
// stored height is a replay duplicate and is silently skipped; a block
// above it is a gap and is rejected (the caller lost blocks and must
// back-fill them before persisting more). Calls for the same channel
// must not race each other (record order in the log is recovery order);
// calls for different channels may run concurrently and share one group
// commit.
func (s *BlockStore) Put(channel string, b *fabric.Block) error {
	tok, err := s.PutAsync(channel, b)
	if err != nil {
		return err
	}
	return tok.Wait()
}

// PutAsync enqueues a sealed block and returns its durability token
// without waiting for the fsync. Height and gap rules match Put (a replay
// duplicate returns an already-completed token). Puts for one channel
// commit in call order, so a contiguous run of blocks persists in one
// fsync wave — wait on the run's last token. The enqueue is lazy, for
// callers that gate nothing on the block's durability (the ordering
// node's send drain, which disseminates on the decision gate alone): the
// record starts no commit wave of its own and rides the next one — both
// kinds share the unified log — so in steady state block persistence adds
// zero fsyncs.
func (s *BlockStore) PutAsync(channel string, b *fabric.Block) (*Token, error) {
	s.mu.Lock()
	height := s.heights[channel]
	if b.Header.Number < height {
		s.mu.Unlock()
		return doneToken(nil), nil
	}
	if b.Header.Number > height {
		s.mu.Unlock()
		return nil, fmt.Errorf("storage: channel %q block %d leaves a gap (height %d)",
			channel, b.Header.Number, height)
	}
	s.heights[channel] = b.Header.Number + 1
	s.mu.Unlock()

	w := wire.GetWriter(16 + len(channel) + b.MarshaledSize())
	w.PutByte(recBlock)
	w.PutString(channel)
	b.MarshalInto(w)
	tok, _, err := s.wal.enqueue(w.Bytes(), w, channel)
	if err != nil {
		wire.PutWriter(w)
		s.mu.Lock()
		if s.heights[channel] == b.Header.Number+1 {
			s.heights[channel] = b.Header.Number
		}
		s.cond.Broadcast()
		s.mu.Unlock()
		return nil, err
	}
	return tok, nil
}

// committed is the commit hook's block half (runs in log order): on
// success the read index gains the record, re-quiescing the channel for a
// waiting compaction. A failed wave poisoned the log, so no put still in
// flight can commit: the height falls back to the indexed frontier.
func (s *BlockStore) committed(idx uint64, rec []byte, channel string, err error) {
	if rec[0] != recBlock {
		return
	}
	s.mu.Lock()
	if err != nil {
		s.heights[channel] = s.floors[channel] + uint64(len(s.index[channel]))
	} else {
		s.index[channel] = append(s.index[channel], idx)
		s.chanBytes[channel] += int64(len(rec)) + recordHeaderSize
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// ReadBlocks reads up to max blocks of one channel back from disk,
// starting at block number start, in order (fabric.BlockReader). Each
// block is one positioned read through the offset index. It returns
// fewer blocks when the chain ends (or the newest appends have not
// finished committing); a start at or past the committed height returns
// nil; a start below the retention floor returns fabric.ErrPruned.
func (s *BlockStore) ReadBlocks(channel string, start uint64, max int) ([]*fabric.Block, error) {
	if max <= 0 {
		return nil, nil
	}
	s.mu.Lock()
	floor := s.floors[channel]
	if start < floor {
		s.mu.Unlock()
		return nil, &fabric.PrunedError{Channel: channel, Floor: floor}
	}
	idxs := s.index[channel]
	if start-floor >= uint64(len(idxs)) {
		s.mu.Unlock()
		return nil, nil
	}
	end := start - floor + uint64(max)
	if end > uint64(len(idxs)) {
		end = uint64(len(idxs))
	}
	want := append([]uint64(nil), idxs[start-floor:end]...)
	s.mu.Unlock()

	out := make([]*fabric.Block, 0, len(want))
	err := s.wal.ReadRecords(want, func(_ uint64, rec []byte) error {
		gotChannel, block, err := decodeBlockRecord(rec)
		if err != nil {
			return err
		}
		if gotChannel != channel || block.Header.Number != start+uint64(len(out)) {
			return fmt.Errorf("%w: index points at channel %q block %d, want %q block %d",
				ErrCorrupt, gotChannel, block.Header.Number, channel, start+uint64(len(out)))
		}
		out = append(out, block)
		return nil
	})
	if errors.Is(err, ErrRecordGone) {
		// A compaction pruned under the read: report the new floor.
		s.mu.Lock()
		floor = s.floors[channel]
		s.mu.Unlock()
		if start < floor {
			return nil, &fabric.PrunedError{Channel: channel, Floor: floor}
		}
		return nil, err
	}
	if err != nil {
		return nil, s.annotateCorrupt(err, channel)
	}
	return out, nil
}

// BlockSpan locates a block's record on disk: segment file, byte offset,
// and framed length. Fault injectors use it to rot a specific block at
// rest; it answers ErrRecordGone below the floor or past the height.
func (s *BlockStore) BlockSpan(channel string, num uint64) (path string, off, length int64, err error) {
	s.mu.Lock()
	floor := s.floors[channel]
	idxs := s.index[channel]
	if num < floor || num-floor >= uint64(len(idxs)) {
		s.mu.Unlock()
		return "", 0, 0, fmt.Errorf("%w: channel %q block %d", ErrRecordGone, channel, num)
	}
	idx := idxs[num-floor]
	s.mu.Unlock()
	return s.wal.RecordSpan(idx)
}

// RepairBlock overwrites a corrupt durable block record with a verified
// replacement fetched from peers: the replacement is re-framed and the
// whole holding segment rewritten in place (crash-safe tmp+rename). The
// replacement must carry the same channel/number coordinates; its
// signature set may differ from the lost original — any f+1-verified
// copy of the block is as good as the one that rotted.
func (s *BlockStore) RepairBlock(channel string, b *fabric.Block) error {
	s.mu.Lock()
	floor := s.floors[channel]
	idxs := s.index[channel]
	num := b.Header.Number
	if num < floor || num-floor >= uint64(len(idxs)) {
		s.mu.Unlock()
		return fmt.Errorf("%w: channel %q block %d", ErrRecordGone, channel, num)
	}
	idx := idxs[num-floor]
	s.mu.Unlock()

	w := wire.GetWriter(16 + len(channel) + b.MarshaledSize())
	defer wire.PutWriter(w)
	w.PutByte(recBlock)
	w.PutString(channel)
	b.MarshalInto(w)

	_, _, oldLen, err := s.wal.RecordSpan(idx)
	if err != nil {
		return err
	}
	if err := s.wal.RewriteRecord(idx, w.Bytes()); err != nil {
		return err
	}
	// Keep the per-channel byte attribution exact: the replacement frame
	// may differ in size from the rotten original.
	delta := int64(len(w.Bytes())) + recordHeaderSize - oldLen
	s.mu.Lock()
	s.chanBytes[channel] += delta
	s.mu.Unlock()
	return nil
}

// ---- retention ---------------------------------------------------------

// RetentionState reports the retained windows — each with its on-disk
// byte attribution, feeding the weighted bytes budget — and the log's
// total size (retention.Store).
func (s *BlockStore) RetentionState() retention.State {
	s.mu.Lock()
	st := retention.State{Channels: make(map[string]retention.ChannelState, len(s.heights))}
	for channel, height := range s.heights {
		st.Channels[channel] = retention.ChannelState{
			Floor:  s.floors[channel],
			Height: height,
			Bytes:  s.chanBytes[channel],
		}
	}
	s.mu.Unlock()
	st.Bytes = s.wal.SizeBytes()
	return st
}

// CompactTo snapshots and prunes: for each listed channel the retention
// floor rises to the target (clamped so at least one block stays
// retained and floors never regress), the manifest is atomically
// replaced, and shared-log segments dead under the two-condition rule —
// no live block record AND wholly behind the decision floor — are
// deleted. The manifest lands before any deletion, so a crash anywhere
// in between recovers a contiguous chain from the new floors. Returns
// the floors actually applied (retention.Store).
func (s *BlockStore) CompactTo(floors map[string]uint64) (map[string]uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Wait out in-flight Puts so the manifest's frontier covers every
	// record below it (a Put between its log append and its index update
	// would otherwise vanish from recovery).
	for !s.quiescentLocked() {
		s.cond.Wait()
	}

	applied := make(map[string]uint64)
	for channel, target := range floors {
		height, ok := s.heights[channel]
		if !ok || height == 0 {
			continue
		}
		if target > height-1 {
			target = height - 1
		}
		if target <= s.floors[channel] {
			continue
		}
		applied[channel] = target
	}
	if len(applied) == 0 {
		return nil, nil
	}

	// Resolve the new anchors (PrevHash of each new floor block) before
	// touching any state.
	anchors := make(map[string]cryptoutil.Digest, len(applied))
	for channel, target := range applied {
		b, err := s.readOne(channel, s.index[channel][target-s.floors[channel]])
		if err != nil {
			return nil, err
		}
		if b.Header.Number != target {
			return nil, fmt.Errorf("%w: channel %q index points at block %d, want %d",
				ErrCorrupt, channel, b.Header.Number, target)
		}
		anchors[channel] = b.Header.PrevHash
	}
	for channel, target := range applied {
		drop := target - s.floors[channel]
		s.index[channel] = append([]uint64(nil), s.index[channel][drop:]...)
		s.floors[channel] = target
		s.anchors[channel] = anchors[channel]
		// Exact recount off the offset tables: cheaper than tracking
		// per-block sizes and compaction is off the hot path anyway.
		s.chanBytes[channel] = s.wal.RecordSizeBytes(s.index[channel])
	}
	if err := s.saveManifestLocked(); err != nil {
		return nil, err
	}
	if err := s.pruneLocked(); err != nil {
		return nil, err
	}
	return applied, nil
}

// RebaseBlocks jumps a channel forward over a gap that no peer can serve
// anymore (everyone pruned it): the channel's floor, height, and anchor
// move to the target, its stale history becomes prunable, and the jump
// is made crash-safe twice over — a channel-meta rebase record is
// fsynced into the shared log first (the typed recovery walk replays it
// even if the manifest write below never lands), then the manifest is
// rewritten (fabric.BlockRebaser).
func (s *BlockStore) RebaseBlocks(channel string, floor uint64, anchor cryptoutil.Digest) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.quiescentLocked() {
		s.cond.Wait()
	}
	if floor < s.heights[channel] {
		return fmt.Errorf("storage: rebase of %q to %d behind height %d",
			channel, floor, s.heights[channel])
	}
	// Durable rebase marker. Waiting on the token under s.mu is safe:
	// quiescence guarantees no block put (whose commit hook needs s.mu)
	// is pending in the log ahead of the marker.
	w := wire.GetWriter(64 + len(channel))
	w.PutByte(recChannelMeta)
	w.PutByte(metaRebase)
	w.PutString(channel)
	w.PutUint64(floor)
	w.PutRaw(anchor[:])
	tok, _, err := s.wal.enqueue(w.Bytes(), w, "")
	if err != nil {
		wire.PutWriter(w)
		return err
	}
	if err := tok.Wait(); err != nil {
		return err
	}
	s.floors[channel] = floor
	s.heights[channel] = floor
	s.anchors[channel] = anchor
	s.index[channel] = nil
	s.chanBytes[channel] = 0
	if err := s.saveManifestLocked(); err != nil {
		return err
	}
	return s.pruneLocked()
}

// quiescentLocked reports whether every height is reflected in the index
// (no Put between its log append and its index update).
func (s *BlockStore) quiescentLocked() bool {
	for channel, height := range s.heights {
		if height-s.floors[channel] != uint64(len(s.index[channel])) {
			return false
		}
	}
	return true
}

// keepIdxLocked returns the block-liveness floor of the shared log: the
// smallest record index any channel still retains (everything below it
// belongs to pruned block prefixes). MaxUint64 when no blocks are
// retained at all.
func (s *BlockStore) keepIdxLocked() uint64 {
	keep := uint64(math.MaxUint64)
	for _, idxs := range s.index {
		if len(idxs) > 0 && idxs[0] < keep {
			keep = idxs[0]
		}
	}
	return keep
}

// decisionFloorOrMax returns the decision-liveness floor, or MaxUint64
// for a standalone store whose log carries no decisions.
func (s *BlockStore) decisionFloorOrMax() uint64 {
	if s.decisionFloor == nil {
		return math.MaxUint64
	}
	return s.decisionFloor()
}

// prune deletes shared-log segments dead under the two-condition rule: a
// segment goes only when every block record in it is below its channel's
// retention floor AND every decision record in it is behind the
// consensus checkpoint — i.e. whole segments below
// min(block floor, decision floor).
func (s *BlockStore) prune() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pruneLocked()
}

func (s *BlockStore) pruneLocked() error {
	return s.wal.PruneTo(min(s.keepIdxLocked(), s.decisionFloorOrMax()))
}

// saveManifestLocked snapshots the full per-channel state — plus the
// decision floor and the per-segment liveness summary the two-condition
// reclamation rule reads — into the manifest file (tmp + rename + dir
// fsync).
func (s *BlockStore) saveManifestLocked() error {
	m := &retention.Manifest{
		KeepIdx:       s.keepIdxLocked(),
		DecisionFloor: s.decisionFloorOrMax(),
		Channels:      make(map[string]retention.ChannelManifest, len(s.heights)),
	}
	if m.KeepIdx == math.MaxUint64 {
		// No retained blocks: record the end-of-log so the floor stays a
		// meaningful index.
		m.KeepIdx = s.wal.LastIndex() + 1
	}
	var live []uint64
	for channel := range s.heights {
		cm := retention.ChannelManifest{
			Floor:  s.floors[channel],
			Anchor: s.anchors[channel],
			Index:  append([]uint64(nil), s.index[channel]...),
		}
		if n := len(cm.Index); n > 0 && cm.Index[n-1] > m.Frontier {
			m.Frontier = cm.Index[n-1]
		}
		live = append(live, cm.Index...)
		m.Channels[channel] = cm
	}
	sort.Slice(live, func(i, j int) bool { return live[i] < live[j] })
	for _, span := range s.wal.SegmentSpans() {
		if span.Last < span.First {
			continue // empty active segment
		}
		lo := sort.Search(len(live), func(i int) bool { return live[i] >= span.First })
		hi := sort.Search(len(live), func(i int) bool { return live[i] > span.Last })
		m.Segments = append(m.Segments, retention.SegmentLiveness{
			First:      span.First,
			Last:       span.Last,
			LiveBlocks: uint64(hi - lo),
		})
	}
	return retention.SaveManifest(s.wal.cfg.FS, s.dir, m)
}

// SizeBytes returns the shared log's on-disk size.
func (s *BlockStore) SizeBytes() int64 { return s.wal.SizeBytes() }

// Close flushes and closes the underlying log when the store owns it (a
// store sharing NodeStorage's unified log leaves the log to its owner).
func (s *BlockStore) Close() error {
	if !s.ownsWAL {
		return nil
	}
	return s.wal.Close()
}

// decodeBlockRecord decodes a typed block record (kind tag, channel, trailing
// block bytes) as a view of rec, which readRecordAt allocates per record.
func decodeBlockRecord(rec []byte) (string, *fabric.Block, error) {
	r := wire.NewReader(rec)
	if kind := r.Byte(); kind != recBlock {
		return "", nil, fmt.Errorf("storage: block record: unexpected kind 0x%02x", kind)
	}
	channel := r.String()
	raw := r.Raw(r.Remaining())
	if err := r.Finish(); err != nil {
		return "", nil, fmt.Errorf("storage: block record: %w", err)
	}
	block, err := fabric.UnmarshalBlock(raw)
	if err != nil {
		return "", nil, fmt.Errorf("storage: %w", err)
	}
	return channel, block, nil
}

// decodeRebaseRecord decodes a channel-meta rebase marker.
func decodeRebaseRecord(rec []byte) (channel string, floor uint64, anchor cryptoutil.Digest, err error) {
	r := wire.NewReader(rec)
	if kind := r.Byte(); kind != recChannelMeta {
		return "", 0, anchor, fmt.Errorf("storage: channel-meta record: unexpected kind 0x%02x", kind)
	}
	if sub := r.Byte(); sub != metaRebase {
		return "", 0, anchor, fmt.Errorf("storage: channel-meta record: unknown sub-kind 0x%02x", sub)
	}
	channel = r.String()
	floor = r.Uint64()
	copy(anchor[:], r.Raw(cryptoutil.DigestSize))
	if err := r.Finish(); err != nil {
		return "", 0, anchor, fmt.Errorf("storage: channel-meta record: %w", err)
	}
	return channel, floor, anchor, nil
}
