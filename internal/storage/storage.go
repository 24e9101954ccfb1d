package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"log/slog"
	"math"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/cryptoutil"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/storage/retention"
	"repro/internal/storage/vfs"
	"repro/internal/wire"
)

// Record kinds of the unified commit log. Every record starts with one of
// these tags; the recovery walk dispatches on it, and the one-byte peek is
// all it costs to skip records another subsystem owns.
const (
	// recDecision is a consensus decision: int64 seq + batch.
	recDecision byte = 0x01
	// recBlock is a sealed block: channel name + block bytes.
	recBlock byte = 0x02
	// recChannelMeta is per-channel metadata (sub-tagged); today that is
	// the rebase marker written when a chain jumps over a cluster-wide
	// pruned gap.
	recChannelMeta byte = 0x03
)

// metaRebase is the channel-meta sub-kind for rebase markers.
const metaRebase byte = 0x01

// DecidedEntry is one consensus decision recovered from the decision log.
type DecidedEntry struct {
	Seq   int64
	Batch [][]byte
}

// RecoveredState is everything a restarting node gets back from disk: the
// newest consensus checkpoint, the decided batches logged after it, and
// the persisted chains' frontiers. Chains carry no blocks — recovery is
// O(manifest + log tail), and ledgers restored from a ChainInfo page
// blocks back from the store on demand.
type RecoveredState struct {
	// CheckpointSeq is the sequence of the newest checkpoint, -1 when no
	// checkpoint was ever written.
	CheckpointSeq int64
	// Checkpoint is the wrapped consensus snapshot at CheckpointSeq.
	Checkpoint []byte
	// Decisions are the logged batches with Seq > CheckpointSeq, in
	// sequence order.
	Decisions []DecidedEntry
	// Chains are the persisted chains' frontiers (floor, anchor, height,
	// last hash), keyed by channel.
	Chains map[string]ChainInfo
	// Membership is the durable group view recorded by the last applied
	// reconfiguration, nil when the node never applied one. A recovering
	// node must prefer it over its static configuration.
	Membership *MembershipRecord
}

// seqIdx is one committed decision's (consensus seq, log index) pair. The
// slice of live pairs replaces the old dense-index arithmetic: with block
// and channel-meta records interleaved in the same log, decision indices
// are no longer contiguous, so checkpoint pruning looks the floor up
// instead of computing it.
type seqIdx struct {
	seq int64
	idx uint64
}

// NodeStorage is one ordering node's durable state, rooted at a data
// directory:
//
//	<dir>/log/        the unified commit log: decision, block, and
//	                  channel-meta records multiplexed into one segmented
//	                  WAL (plus the retention MANIFEST)
//	<dir>/checkpoint  newest consensus snapshot (atomic replace)
//
// Decision records are the write-ahead half: a batch is fsynced before
// its effects become externally visible, so on restart the node replays
// checkpoint + log and arrives at exactly the state it had durably
// reached. Decisions may be enqueued asynchronously (AppendBatchAsync):
// the caller keeps running and gates visible effects on the returned
// durability token instead of blocking on the fsync. Because every record
// kind shares one physical log, a commit wave — the decisions and blocks
// enqueued since the last one — costs exactly one fsync; recovery is a
// single typed walk that rebuilds the decision replay stream and the
// per-channel block index together. Segment reclamation follows the
// two-condition rule: a segment is deleted only when it is both behind
// the consensus checkpoint (no live decision) and below every channel's
// retention floor (no live block).
type NodeStorage struct {
	dir    string
	fs     vfs.FS
	wal    *WAL
	blocks *BlockStore
	ckpt   *Checkpointer

	recovered *RecoveredState

	// mu guards the decision bookkeeping of the shared log.
	mu      sync.Mutex
	enqSeq  int64    // newest decision seq enqueued or recovered (-1 when none)
	lastTok *Token   // durability token of the newest enqueued decision
	decPos  []seqIdx // committed decisions above the newest checkpoint, in order

	// Checkpoint worker: SaveCheckpointAsync hands the newest snapshot
	// to this goroutine so the checkpoint's two fsyncs (tmp file + dir)
	// never run on the consensus event loop. Only the newest pending
	// snapshot matters, so the slot holds at most one. ckptSaveMu
	// serializes the actual saves (the worker and direct SaveCheckpoint
	// calls), and ckptSavedSeq keeps them monotonic — a stale coalesced
	// save must never replace a newer checkpoint on disk.
	ckptMu       sync.Mutex
	ckptPending  *ckptReq
	ckptGate     func(seq int64) bool
	ckptNotify   chan struct{}
	ckptDone     chan struct{}
	ckptWg       sync.WaitGroup
	ckptSaveMu   sync.Mutex
	ckptSavedSeq int64

	// Membership record bookkeeping: memberEpoch is the newest epoch on
	// disk (nil before any save this incarnation — recovery seeds it).
	memberMu    sync.Mutex
	memberEpoch *uint64

	// metrics is never nil (normalized to a nop bundle at Open).
	metrics *obs.StorageMetrics
}

// ckptReq is one pending asynchronous checkpoint save.
type ckptReq struct {
	seq  int64
	snap []byte
}

// Options tunes a NodeStorage.
type Options struct {
	// SegmentBytes overrides the unified commit log's segment size
	// (default 4 MiB). Segments are both the checkpoint-pruning and the
	// retention-compaction granularity now that decisions and blocks
	// share one log, so smaller segments reclaim disk sooner at the cost
	// of more files.
	SegmentBytes int64
	// NoSync disables fsync everywhere. Only for benchmarks isolating the
	// write path.
	NoSync bool
	// SyncHook, when set, runs at the start of every commit wave, before
	// the wave's group is taken. Test instrumentation: stalling it keeps
	// enqueued records non-durable, which is how the write-ahead gating
	// and crash-window tests open the window between enqueue and fsync.
	SyncHook func()
	// Metrics, when set, instruments the commit log: waves, fsyncs, bytes,
	// segments, checkpoint, and retention events.
	Metrics *obs.StorageMetrics
	// FS is the filesystem seam every durable artifact goes through (nil =
	// the real OS filesystem). Fault-injection tests swap in a faultfs.FS
	// here; production never sets it.
	FS vfs.FS
}

// Open opens (or initializes) a node's durable state under dir and
// recovers whatever a previous incarnation left behind.
func Open(dir string, opts Options) (*NodeStorage, error) {
	fsys := vfs.OrOS(opts.FS)
	ckpt, err := NewCheckpointer(dir, fsys)
	if err != nil {
		return nil, err
	}
	wal, err := OpenWAL(WALConfig{
		Dir:          filepath.Join(dir, "log"),
		SegmentBytes: opts.SegmentBytes,
		NoSync:       opts.NoSync,
		SyncHook:     opts.SyncHook,
		Metrics:      opts.Metrics,
		FS:           fsys,
	})
	if err != nil {
		return nil, err
	}
	s := &NodeStorage{
		dir:          dir,
		fs:           fsys,
		wal:          wal,
		ckpt:         ckpt,
		enqSeq:       -1,
		ckptNotify:   make(chan struct{}, 1),
		ckptDone:     make(chan struct{}),
		ckptSavedSeq: -1,
		metrics:      opts.Metrics.OrNop(),
	}
	s.blocks = newBlockStore(filepath.Join(dir, "log"), wal, false)
	s.blocks.decisionFloor = s.decisionFloor
	wal.onCommit = s.committed
	if err := s.recover(); err != nil {
		s.Close()
		return nil, err
	}
	s.ckptWg.Add(1)
	go s.ckptWorker()
	return s, nil
}

// recover loads the checkpoint and runs the single typed walk over the
// unified log: decision records rebuild the replay stream (and the
// seq↔index pairs checkpoint pruning needs), block and channel-meta
// records are forwarded to the block index. It finishes by re-applying
// any segment deletions a crash interrupted, under the two-condition
// rule.
func (s *NodeStorage) recover() error {
	st := &RecoveredState{CheckpointSeq: -1}
	seq, snap, found, err := s.ckpt.Load()
	if err != nil {
		return err
	}
	if found {
		st.CheckpointSeq = seq
		st.Checkpoint = snap
		s.enqSeq = seq // log entries replayed below override
		s.ckptSavedSeq = seq
	}
	if _, err := s.blocks.seedFromManifest(); err != nil {
		return err
	}
	err = s.wal.Replay(func(idx uint64, rec []byte) error {
		if len(rec) == 0 {
			return fmt.Errorf("%w: empty record %d", ErrCorrupt, idx)
		}
		if rec[0] != recDecision {
			return s.blocks.applyRecord(idx, rec)
		}
		entry, err := decodeDecision(rec)
		if err != nil {
			return err
		}
		s.enqSeq = entry.Seq
		if entry.Seq <= st.CheckpointSeq {
			return nil // already covered by the checkpoint; awaiting prune
		}
		if n := len(st.Decisions); n > 0 && entry.Seq != st.Decisions[n-1].Seq+1 {
			return fmt.Errorf("%w: decision log gap at seq %d", ErrCorrupt, entry.Seq)
		}
		st.Decisions = append(st.Decisions, entry)
		s.decPos = append(s.decPos, seqIdx{seq: entry.Seq, idx: idx})
		return nil
	})
	if err != nil {
		return err
	}
	if len(st.Decisions) > 0 && st.CheckpointSeq >= 0 &&
		st.Decisions[0].Seq != st.CheckpointSeq+1 {
		return fmt.Errorf("%w: decision log starts at seq %d after checkpoint %d",
			ErrCorrupt, st.Decisions[0].Seq, st.CheckpointSeq)
	}
	if err := s.blocks.finishRecovery(); err != nil {
		return err
	}
	member, err := loadMembership(s.fs, s.dir)
	if err != nil {
		return err
	}
	if member != nil {
		st.Membership = member
		epoch := member.Epoch
		s.memberEpoch = &epoch
	}
	st.Chains = s.blocks.Chains()
	s.recovered = st
	// Re-apply deletions a crash may have interrupted: with both floors
	// known again, prune everything dead under the two-condition rule.
	return s.blocks.prune()
}

// Recovered returns the state replayed at Open and releases the storage's
// reference to it.
func (s *NodeStorage) Recovered() *RecoveredState {
	st := s.recovered
	s.recovered = nil
	if st == nil {
		st = &RecoveredState{CheckpointSeq: -1, Chains: map[string]ChainInfo{}}
	}
	return st
}

// decisionFloor returns the decision-liveness floor of the shared log:
// the index of the oldest committed decision the newest checkpoint has
// not subsumed, or MaxUint64 when every committed decision is behind a
// checkpoint (no decision constrains reclamation).
func (s *NodeStorage) decisionFloor() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.decPos) == 0 {
		return math.MaxUint64
	}
	return s.decPos[0].idx
}

// DecisionBatch is a decided batch as its owner holds it: Len entries, each
// of which it writes into the decision record itself, so that the log
// copies each entry once and the owner need not encode the batch first.
type DecisionBatch interface {
	Len() int
	// EntrySize is the exact length of entry i.
	EntrySize(i int) int
	// PutEntry writes entry i into w.
	PutEntry(w *wire.Writer, i int)
}

// entries is a DecisionBatch of encoded entries.
type entries [][]byte

func (e entries) Len() int                       { return len(e) }
func (e entries) EntrySize(i int) int            { return len(e[i]) }
func (e entries) PutEntry(w *wire.Writer, i int) { w.PutRaw(e[i]) }

// AppendDecision durably logs one decided batch, blocking until the
// record is fsynced. Sequences must arrive in order without gaps.
func (s *NodeStorage) AppendDecision(seq int64, batch [][]byte) error {
	return s.AppendDecisionAsync(seq, batch).Wait()
}

// AppendDecisionAsync is AppendBatchAsync of encoded entries.
func (s *NodeStorage) AppendDecisionAsync(seq int64, batch [][]byte) *Token {
	return s.AppendBatchAsync(seq, entries(batch))
}

// AppendBatchAsync enqueues one decided batch on the commit log, lazily,
// and returns its durability token. The record is the kind tag, the seq,
// and the batch's entries as PutBytesSlice writes them, each entry written
// by the batch straight into the pooled record buffer. The consensus event
// loop keeps executing; the node flushes the token when the decision seals
// a block and its send drain gates dissemination on it (the log is FIFO,
// so the newest decision's token covers every earlier one): nothing leaves
// the node before its decision is on disk, and a decision that seals
// nothing rides the next wave. Sequences must arrive in order without
// gaps; a duplicate returns the newest enqueued decision's token (the log
// is FIFO, so its completion implies the duplicate's record is durable
// too).
func (s *NodeStorage) AppendBatchAsync(seq int64, batch DecisionBatch) *Token {
	s.mu.Lock()
	if s.enqSeq >= 0 && seq <= s.enqSeq {
		tok := s.lastTok
		s.mu.Unlock()
		if tok == nil {
			return doneToken(nil) // recovered replay duplicate: already on disk
		}
		return tok
	}
	s.mu.Unlock()

	n := batch.Len()
	size := 1 + 8 + wire.UvarintSize(uint64(n))
	for i := 0; i < n; i++ {
		size += wire.BytesSize(batch.EntrySize(i))
	}
	w := wire.GetWriter(size)
	w.PutByte(recDecision)
	w.PutInt64(seq)
	w.PutUvarint(uint64(n))
	for i := 0; i < n; i++ {
		w.PutUvarint(uint64(batch.EntrySize(i)))
		batch.PutEntry(w, i)
	}
	tok, _, err := s.wal.enqueue(w.Bytes(), w, "")
	if err != nil {
		wire.PutWriter(w)
		return doneToken(err)
	}
	s.mu.Lock()
	s.enqSeq = seq
	s.lastTok = tok
	s.mu.Unlock()
	return tok
}

// committed is the unified log's commit hook (WAL.onCommit): on the
// commit loop, in log order, a committed decision's seq<->index pair joins
// the live-decision list checkpoint pruning reads, and block records go to
// the block index.
func (s *NodeStorage) committed(idx uint64, rec []byte, channel string, err error) {
	switch {
	case rec[0] != recDecision:
		s.blocks.committed(idx, rec, channel, err)
	case err == nil:
		s.mu.Lock()
		s.decPos = append(s.decPos, seqIdx{seq: int64(binary.BigEndian.Uint64(rec[1:9])), idx: idx})
		s.mu.Unlock()
	}
}

// SaveCheckpoint atomically persists the consensus snapshot at seq, then
// prunes shared-log segments dead under the two-condition rule (behind
// this checkpoint AND below every channel's retention floor). Saves are
// serialized and monotonic: a save at or below the newest on-disk
// checkpoint is a no-op (a checkpoint subsumes every older one).
func (s *NodeStorage) SaveCheckpoint(seq int64, snapshot []byte) error {
	s.ckptSaveMu.Lock()
	defer s.ckptSaveMu.Unlock()
	if seq <= s.ckptSavedSeq {
		return nil
	}
	if err := s.ckpt.Save(seq, snapshot); err != nil {
		return err
	}
	s.ckptSavedSeq = seq
	s.metrics.CheckpointSaved.Inc()
	// Decisions at or below seq are subsumed: drop them from the
	// live-decision list, then prune whatever segments both floors agree
	// are dead.
	s.mu.Lock()
	cut := sort.Search(len(s.decPos), func(i int) bool { return s.decPos[i].seq > seq })
	s.decPos = s.decPos[:copy(s.decPos, s.decPos[cut:])]
	s.mu.Unlock()
	return s.blocks.prune()
}

// SaveCheckpointAsync hands the snapshot to the checkpoint worker and
// returns immediately: the save's fsyncs run off the caller's goroutine
// (the consensus event loop). Only the newest pending snapshot is kept —
// a checkpoint subsumes every older one — so a slow disk coalesces
// checkpoints instead of queueing them. A crash before the worker gets
// there just recovers from the previous checkpoint with a longer
// decision-log replay; Close flushes the pending save.
func (s *NodeStorage) SaveCheckpointAsync(seq int64, snapshot []byte) {
	s.ckptMu.Lock()
	s.ckptPending = &ckptReq{seq: seq, snap: snapshot}
	s.ckptMu.Unlock()
	select {
	case s.ckptNotify <- struct{}{}:
	default:
	}
}

// SetCheckpointGate installs a predicate consulted before an asynchronous
// checkpoint save is written: the save is deferred while the gate returns
// false for its seq. Recovery skips every decision at or below the on-disk
// checkpoint seq, so a checkpoint that lands before the blocks it implies
// are durable would turn a crash into a permanent ledger gap — the ordering
// layer gates saves on its persist watermark and calls NudgeCheckpoint when
// the watermark advances. The gate must not block; it may be called from the
// checkpoint worker at any time. Direct (synchronous) SaveCheckpoint calls
// bypass the gate: the bridging path already waits for durability itself.
func (s *NodeStorage) SetCheckpointGate(gate func(seq int64) bool) {
	s.ckptMu.Lock()
	s.ckptGate = gate
	s.ckptMu.Unlock()
}

// NudgeCheckpoint re-examines a deferred checkpoint save. Non-blocking;
// called whenever the condition the gate watches may have changed.
func (s *NodeStorage) NudgeCheckpoint() {
	select {
	case s.ckptNotify <- struct{}{}:
	default:
	}
}

// SavedCheckpointSeq reads the sequence of the checkpoint that is durably
// on disk right now, -1 when none was ever saved. Saves replace the stable
// file by atomic rename, so this is safe to call while the checkpoint
// worker runs; it is an observability probe for tests and tooling, not a
// hot-path accessor.
func (s *NodeStorage) SavedCheckpointSeq() (int64, error) {
	seq, _, found, err := s.ckpt.Load()
	if err != nil {
		return -1, err
	}
	if !found {
		return -1, nil
	}
	return seq, nil
}

func (s *NodeStorage) ckptWorker() {
	defer s.ckptWg.Done()
	for {
		select {
		case <-s.ckptNotify:
		case <-s.ckptDone:
			s.flushCheckpoint()
			return
		}
		s.flushCheckpoint()
	}
}

// flushCheckpoint saves the pending snapshot, if any, unless the
// checkpoint gate defers it.
func (s *NodeStorage) flushCheckpoint() {
	s.ckptMu.Lock()
	req := s.ckptPending
	s.ckptPending = nil
	gate := s.ckptGate
	s.ckptMu.Unlock()
	if req == nil {
		return
	}
	if gate != nil && !gate(req.seq) {
		// The blocks this checkpoint implies are not all durable yet.
		// Re-queue the snapshot (unless a newer one already took the slot)
		// and wait for a NudgeCheckpoint; a crash meanwhile just replays
		// from the previous checkpoint.
		s.metrics.CheckpointDeferred.Inc()
		s.ckptMu.Lock()
		if s.ckptPending == nil {
			s.ckptPending = req
		}
		s.ckptMu.Unlock()
		return
	}
	if err := s.SaveCheckpoint(req.seq, req.snap); err != nil {
		slog.Error("storage: async checkpoint save failed", "dir", s.dir, "seq", req.seq, "err", err)
	}
}

// PutBlockAsync enqueues a sealed block on the commit log and returns its
// durability token (fabric.BlockBackend). Like every enqueue it is lazy:
// nothing waits for a block record, so it rides the wave the next sealed
// block starts, at zero extra fsyncs; callers that wait (recovery replay,
// back-fill) start the wave with Wait.
func (s *NodeStorage) PutBlockAsync(channel string, b *fabric.Block) (fabric.DurableToken, error) {
	tok, err := s.blocks.PutAsync(channel, b)
	if err != nil {
		return nil, err
	}
	return tok, nil
}

// BlockHeight returns the number of blocks persisted for a channel.
func (s *NodeStorage) BlockHeight(channel string) uint64 {
	return s.blocks.Height(channel)
}

// ReadBlocks reads up to max persisted blocks of a channel back from disk,
// starting at block number start (fabric.BlockReader). Ledgers backed by a
// NodeStorage therefore keep only a bounded tail in memory and page older
// blocks in on demand. A start below the retention floor answers
// fabric.ErrPruned.
func (s *NodeStorage) ReadBlocks(channel string, start uint64, max int) ([]*fabric.Block, error) {
	return s.blocks.ReadBlocks(channel, start, max)
}

// BlockSpan locates a block's durable record on disk (segment file, byte
// offset, framed length). Fault injectors corrupt at rest through it.
func (s *NodeStorage) BlockSpan(channel string, num uint64) (path string, off, length int64, err error) {
	return s.blocks.BlockSpan(channel, num)
}

// RepairBlock overwrites a corrupt durable block record with a verified
// replacement fetched from peers (see BlockStore.RepairBlock).
func (s *NodeStorage) RepairBlock(channel string, b *fabric.Block) error {
	return s.blocks.RepairBlock(channel, b)
}

// RetentionState reports the block store's retained windows and on-disk
// size (retention.Store).
func (s *NodeStorage) RetentionState() retention.State {
	return s.blocks.RetentionState()
}

// CompactTo snapshots and prunes the block store to the given per-channel
// floors (retention.Store). Reclamation is two-condition: a shared-log
// segment is deleted only when it is below every channel's new floor and
// behind the consensus checkpoint.
func (s *NodeStorage) CompactTo(floors map[string]uint64) (map[string]uint64, error) {
	return s.blocks.CompactTo(floors)
}

// RebaseBlocks jumps a channel's durable chain over a cluster-wide pruned
// gap (fabric.BlockRebaser).
func (s *NodeStorage) RebaseBlocks(channel string, floor uint64, anchor cryptoutil.Digest) error {
	return s.blocks.RebaseBlocks(channel, floor, anchor)
}

// BlockStoreBytes returns the unified log's on-disk size (blocks dominate
// it; the retention bytes trigger reads this).
func (s *NodeStorage) BlockStoreBytes() int64 { return s.blocks.SizeBytes() }

// Dir returns the storage root.
func (s *NodeStorage) Dir() string { return s.dir }

// Poisoned reports the shared log's permanent failure state: nil while
// healthy, the wrapped ErrLogPoisoned after a wave fsync failed. Once
// poisoned the log never recovers (fsyncgate semantics — the kernel
// dropped the dirty pages, so a retried fsync lying "ok" would lose
// acked data); callers observing it must stop acking and shut down.
func (s *NodeStorage) Poisoned() error { return s.wal.Poisoned() }

// Close flushes the pending checkpoint, then drains and closes the
// unified log.
func (s *NodeStorage) Close() error {
	var first error
	if s.ckptDone != nil {
		select {
		case <-s.ckptDone:
			// already closed
		default:
			close(s.ckptDone)
		}
		s.ckptWg.Wait()
	}
	if s.wal != nil {
		if err := s.wal.Close(); err != nil {
			first = err
		}
	}
	return first
}

// decodeDecision decodes a typed decision record into views of a private
// copy of rec: replay passes slices of one whole-segment buffer, which a
// retained batch must not keep alive.
func decodeDecision(rec []byte) (DecidedEntry, error) {
	r := wire.NewReader(bytes.Clone(rec))
	if kind := r.Byte(); kind != recDecision {
		return DecidedEntry{}, fmt.Errorf("storage: decision record: unexpected kind 0x%02x", kind)
	}
	entry := DecidedEntry{
		Seq:   r.Int64(),
		Batch: r.BytesSlice(),
	}
	if err := r.Finish(); err != nil {
		return DecidedEntry{}, fmt.Errorf("storage: decision record: %w", err)
	}
	return entry, nil
}
