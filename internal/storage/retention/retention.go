// Package retention bounds the on-disk size of the ordering service's
// block store. The commit log is append-only, so without intervention a
// node's ledger grows with chain length forever — a non-starter for
// sustained traffic. Retention follows the discipline Fabric applies to
// the orderer ledger (Sousa, Bessani & Vukolić, DSN 2018; Barger et al.,
// 2021): once downstream peers have caught up, history below a retention
// floor is prunable, and a snapshot manifest — not the chain prefix — is
// what recovery trusts. Because blocks share one physical log with
// consensus decisions, reclamation is two-condition: a segment is
// deletable only when it holds no live block (below every channel's
// floor) AND no live decision (behind the consensus checkpoint); the
// manifest records the decision floor and a per-segment liveness summary
// so that rule is explicit on disk.
//
// The package owns three pieces:
//
//   - Manifest: the atomic snapshot written before any segment is
//     deleted. Per channel it records the first retained block, that
//     block's previous-hash anchor (so recovery re-verifies linkage
//     without the pruned prefix), and the block-number → WAL-record index
//     of every retained block, letting recovery seed its read index
//     without decoding the whole retained window.
//   - Policy: when to compact (retained-block count or retained bytes)
//     and how far (the per-channel floors).
//   - Manager: a single-flight driver that runs compaction off the hot
//     path and reports applied floors so in-memory ledgers can advance.
//
// Crash windows are covered by ordering: the manifest is written (tmp +
// rename + dir fsync) before any deletion, deletions proceed oldest
// first, and recovery loads the manifest first and re-applies any
// deletions a crash interrupted. A node killed between the manifest
// write and the last deletion therefore recovers a contiguous chain from
// the manifest's floor either way.
package retention

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/cryptoutil"
	"repro/internal/storage/vfs"
	"repro/internal/wire"
)

// manifestMagic guards against reading a foreign file as a manifest.
// "RMF2": the unified-commit-log format, which added the decision floor
// and the per-segment liveness summary (a segment of the shared log is
// reclaimable only when it is both behind the consensus checkpoint and
// below every channel's retention floor).
const manifestMagic = 0x524d4632 // "RMF2"

// ManifestFile is the stable manifest name inside a block-store
// directory.
const ManifestFile = "MANIFEST"

// ErrManifestCorrupt reports a manifest that fails its CRC or decodes
// inconsistently.
var ErrManifestCorrupt = errors.New("retention: manifest corrupt")

// ChannelManifest is one channel's snapshot state.
type ChannelManifest struct {
	// Floor is the first retained block number; everything below it is
	// (or is about to be) pruned.
	Floor uint64
	// Anchor is the PrevHash of block Floor: the hash of the newest
	// pruned header. Recovery checks the first retained block links into
	// it, so pruning never silently admits a forked prefix. Zero when
	// Floor is 0.
	Anchor cryptoutil.Digest
	// Index maps retained block numbers to WAL record indices:
	// Index[i] is the WAL index of block Floor+i at snapshot time.
	// Strictly increasing; delta-encoded on disk.
	Index []uint64
}

// SegmentLiveness summarizes one shared-log segment's live content at
// snapshot time: the two-condition reclamation rule reads directly off
// it — a segment is deletable only when LiveBlocks is zero (every block
// record in it sits below its channel's retention floor) AND its whole
// index span lies below the decision floor (every decision record in it
// is behind the consensus checkpoint).
type SegmentLiveness struct {
	// First and Last bound the record indices the segment holds.
	First, Last uint64
	// LiveBlocks counts the segment's block records at or above their
	// channel's retention floor (i.e. pointed at by some channel index).
	LiveBlocks uint64
}

// Dead reports whether the segment was reclaimable at snapshot time
// under the two-condition rule, given the manifest's decision floor.
func (s SegmentLiveness) Dead(decisionFloor uint64) bool {
	return s.LiveBlocks == 0 && s.Last < decisionFloor
}

// Manifest is the snapshot the block store trusts at open: everything
// below KeepIdx holds no live block, everything covered by the
// per-channel indexes needs no block decoding at recovery, and records
// above Frontier are replayed normally. Since the block store shares one
// physical commit log with the decision log, the manifest also records
// the decision-side liveness floor and a per-segment summary, so the
// reclamation decision (and its re-application after a crash) is the
// explicit two-condition rule rather than block-side bookkeeping alone.
type Manifest struct {
	// KeepIdx is the block-liveness floor of the shared commit log: every
	// record with index < KeepIdx belongs to some channel's pruned block
	// prefix (decision records have their own floor below). Survivors
	// inside a kept segment are simply skipped at recovery.
	KeepIdx uint64
	// DecisionFloor is the decision-liveness floor at snapshot time: every
	// record below it holds no decision the newest consensus checkpoint
	// has not subsumed. Segments are deleted only below
	// min(KeepIdx, DecisionFloor).
	DecisionFloor uint64
	// Frontier is the highest log index covered by the channel indexes
	// (0 when no blocks are retained). Recovery decodes no block record
	// at or below it.
	Frontier uint64
	// Segments is the per-segment liveness summary at snapshot time,
	// oldest first.
	Segments []SegmentLiveness
	// Channels is the per-channel snapshot state.
	Channels map[string]ChannelManifest
}

// Marshal encodes the manifest (magic, body, CRC32).
func (m *Manifest) Marshal() []byte {
	w := wire.NewWriter(64 + 24*len(m.Segments) + 48*len(m.Channels))
	w.PutUint32(manifestMagic)
	w.PutUint64(m.KeepIdx)
	w.PutUint64(m.DecisionFloor)
	w.PutUint64(m.Frontier)
	w.PutUvarint(uint64(len(m.Segments)))
	for _, seg := range m.Segments {
		w.PutUint64(seg.First)
		w.PutUint64(seg.Last)
		w.PutUvarint(seg.LiveBlocks)
	}
	names := make([]string, 0, len(m.Channels))
	for name := range m.Channels {
		names = append(names, name)
	}
	sort.Strings(names)
	w.PutUvarint(uint64(len(names)))
	for _, name := range names {
		ch := m.Channels[name]
		w.PutString(name)
		w.PutUint64(ch.Floor)
		w.PutRaw(ch.Anchor[:])
		w.PutUvarint(uint64(len(ch.Index)))
		prev := uint64(0)
		for i, idx := range ch.Index {
			if i == 0 {
				w.PutUvarint(idx)
			} else {
				w.PutUvarint(idx - prev) // strictly increasing: delta fits
			}
			prev = idx
		}
	}
	body := w.Bytes()
	return binary.BigEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

// UnmarshalManifest decodes a manifest written by Marshal.
func UnmarshalManifest(raw []byte) (*Manifest, error) {
	if len(raw) < 8 {
		return nil, ErrManifestCorrupt
	}
	body, tail := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(tail) {
		return nil, ErrManifestCorrupt
	}
	r := wire.NewReader(body)
	if r.Uint32() != manifestMagic {
		return nil, ErrManifestCorrupt
	}
	m := &Manifest{
		KeepIdx:       r.Uint64(),
		DecisionFloor: r.Uint64(),
		Frontier:      r.Uint64(),
		Channels:      make(map[string]ChannelManifest),
	}
	nseg := r.Count(17) // two indices and a count
	if r.Err() != nil || nseg > 1<<20 {
		return nil, ErrManifestCorrupt
	}
	m.Segments = make([]SegmentLiveness, 0, nseg)
	for i := 0; i < nseg; i++ {
		m.Segments = append(m.Segments, SegmentLiveness{
			First:      r.Uint64(),
			Last:       r.Uint64(),
			LiveBlocks: r.Uvarint(),
		})
	}
	count := r.Uvarint()
	if count > 1<<20 {
		return nil, ErrManifestCorrupt
	}
	for i := uint64(0); i < count; i++ {
		name := r.String()
		ch := ChannelManifest{Floor: r.Uint64()}
		copy(ch.Anchor[:], r.Raw(cryptoutil.DigestSize))
		n := r.Count(1)
		if r.Err() != nil {
			return nil, ErrManifestCorrupt
		}
		ch.Index = make([]uint64, 0, n)
		idx := uint64(0)
		for j := 0; j < n; j++ {
			d := r.Uvarint()
			if j == 0 {
				idx = d
			} else {
				idx += d
			}
			ch.Index = append(ch.Index, idx)
		}
		m.Channels[name] = ch
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrManifestCorrupt, err)
	}
	return m, nil
}

// SaveManifest atomically replaces the manifest under dir: write to a
// temp file, fsync, demote the stable copy to its .prev generation,
// rename over the stable name, fsync the directory. Either the old or
// the new manifest governs after a crash, never a half-written one, and
// one previous generation survives as a bit-rot fallback. fsys is the
// filesystem seam (nil = the real OS filesystem).
func SaveManifest(fsys vfs.FS, dir string, m *Manifest) error {
	final := filepath.Join(dir, ManifestFile)
	if err := vfs.SaveAtomicWithPrev(fsys, dir, final, m.Marshal()); err != nil {
		return fmt.Errorf("retention: %w", err)
	}
	return nil
}

// LoadManifest reads the manifest under dir. found is false when none
// was ever written (a store that never compacted). A stale temp file
// from an interrupted save is ignored. A stable manifest that fails its
// CRC falls back to the retained .prev generation: an older manifest only
// makes recovery's log walk start earlier (it seeds lower floors), the
// walk itself rebuilds the true frontier.
func LoadManifest(fsys vfs.FS, dir string) (m *Manifest, found bool, err error) {
	fsys = vfs.OrOS(fsys)
	stable := filepath.Join(dir, ManifestFile)
	m, found, err = loadManifestFile(fsys, stable)
	if err == nil {
		return m, found, nil
	}
	pm, pfound, perr := loadManifestFile(fsys, stable+vfs.PrevSuffix)
	if perr == nil && pfound {
		slog.Warn("retention: manifest corrupt; falling back to previous generation",
			"file", stable, "err", err)
		return pm, true, nil
	}
	return nil, false, err
}

func loadManifestFile(fsys vfs.FS, path string) (m *Manifest, found bool, err error) {
	raw, err := fsys.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("retention: %w", err)
	}
	m, err = UnmarshalManifest(raw)
	if err != nil {
		return nil, false, err
	}
	return m, true, nil
}

// ---- policy ------------------------------------------------------------

// ChannelState is one channel's retained window as the store reports it.
type ChannelState struct {
	// Floor is the first retained block number.
	Floor uint64
	// Height is the next block number to append (Height-Floor blocks are
	// retained).
	Height uint64
	// Bytes is the on-disk size of the channel's retained block records
	// (framed record bytes in the shared log). Zero when the store does
	// not account per channel; the bytes budget then falls back to
	// uniform halving.
	Bytes int64
}

// State is the store-wide input to a retention decision.
type State struct {
	// Channels is the per-channel retained window.
	Channels map[string]ChannelState
	// Bytes is the block store's current on-disk size.
	Bytes int64
}

// Policy decides when the block store compacts and how far. The zero
// policy never compacts.
type Policy struct {
	// RetainBlocks bounds the retained blocks per channel: a channel
	// whose window exceeds it (plus slack) is compacted back down to it.
	// Zero disables the count trigger.
	RetainBlocks uint64
	// RetainBytes bounds the block store's total on-disk size: when
	// exceeded, each channel is trimmed back to its weighted share of
	// the budget (whole WAL segments are reclaimed only once the floors
	// cross segment boundaries, so the bound is met up to one segment of
	// slack). Zero disables the bytes trigger.
	RetainBytes int64
	// Weights biases the bytes budget across channels: channel c's share
	// of RetainBytes is Weights[c] / Σ weights over live channels, so a
	// heavy channel can be granted a larger retained window than a light
	// one instead of everyone halving uniformly. Unlisted (or
	// non-positive) entries weigh 1; nil means every channel weighs 1
	// (equal shares).
	Weights map[string]float64
	// CheckSlack delays the count trigger until a channel's window
	// exceeds RetainBlocks by this many blocks, so compaction (a
	// manifest fsync) amortizes instead of running per block. Zero
	// derives RetainBlocks/4, minimum 1.
	CheckSlack uint64
}

// Weight returns channel's bytes-budget weight (1 when unlisted).
func (p Policy) Weight(channel string) float64 {
	if w, ok := p.Weights[channel]; ok && w > 0 {
		return w
	}
	return 1
}

// Enabled reports whether the policy ever compacts.
func (p Policy) Enabled() bool { return p.RetainBlocks > 0 || p.RetainBytes > 0 }

func (p Policy) slack() uint64 {
	if p.CheckSlack > 0 {
		return p.CheckSlack
	}
	s := p.RetainBlocks / 4
	if s < 1 {
		s = 1
	}
	return s
}

// Due reports whether the state warrants a compaction.
func (p Policy) Due(st State) bool {
	if p.RetainBytes > 0 && st.Bytes > p.RetainBytes {
		return true
	}
	if p.RetainBlocks > 0 {
		for _, ch := range st.Channels {
			if ch.Height-ch.Floor > p.RetainBlocks+p.slack() {
				return true
			}
		}
	}
	return false
}

// Plan computes the per-channel target floors for one compaction, or nil
// when nothing is due. Floors never regress and always leave at least
// one block retained (the chain head anchors fetches and head probes).
func (p Policy) Plan(st State) map[string]uint64 {
	if !p.Due(st) {
		return nil
	}
	return p.plan(st)
}

// ForcePlan computes target floors without the Due gate or its slack:
// the explicit admin trigger prunes everything the policy allows, even
// when the periodic trigger would still be coasting on slack.
func (p Policy) ForcePlan(st State) map[string]uint64 {
	if !p.Enabled() {
		return nil
	}
	return p.plan(st)
}

func (p Policy) plan(st State) map[string]uint64 {
	floors := make(map[string]uint64)
	overBytes := p.RetainBytes > 0 && st.Bytes > p.RetainBytes
	var sumW float64
	if overBytes {
		for name, ch := range st.Channels {
			if ch.Height > 0 {
				sumW += p.Weight(name)
			}
		}
	}
	for name, ch := range st.Channels {
		if ch.Height == 0 {
			continue
		}
		floor := ch.Floor
		if p.RetainBlocks > 0 && ch.Height-ch.Floor > p.RetainBlocks {
			floor = ch.Height - p.RetainBlocks
		}
		if overBytes {
			if target := p.bytesFloor(name, ch, sumW); target > floor {
				floor = target
			}
		}
		if floor > ch.Height-1 {
			floor = ch.Height - 1
		}
		if floor > ch.Floor {
			floors[name] = floor
		}
	}
	if len(floors) == 0 {
		return nil
	}
	return floors
}

// bytesFloor resolves the bytes trigger for one channel: trim the channel
// down to its weighted share of the RetainBytes budget, estimating blocks
// to drop from the channel's average retained record size. A store that
// does not account bytes per channel (Bytes == 0) falls back to dropping
// the older half of the window.
func (p Policy) bytesFloor(name string, ch ChannelState, sumW float64) uint64 {
	retained := ch.Height - ch.Floor
	if retained == 0 {
		return ch.Floor
	}
	if ch.Bytes <= 0 {
		return ch.Floor + retained/2
	}
	budget := int64(float64(p.RetainBytes) * p.Weight(name) / sumW)
	if ch.Bytes <= budget {
		return ch.Floor // within its share: this channel keeps its window
	}
	avg := float64(ch.Bytes) / float64(retained)
	drop := uint64(math.Ceil(float64(ch.Bytes-budget) / avg))
	if drop > retained {
		drop = retained
	}
	return ch.Floor + drop
}

// ---- manager -----------------------------------------------------------

// Store is the compaction surface the manager drives (implemented by
// storage.BlockStore / storage.NodeStorage).
type Store interface {
	// RetentionState reports the current retained windows and on-disk
	// size.
	RetentionState() State
	// CompactTo snapshots and prunes so that each listed channel retains
	// blocks from its target floor upward. It returns the floors
	// actually applied.
	CompactTo(floors map[string]uint64) (map[string]uint64, error)
}

// Manager runs policy-driven compaction off the hot path: MaybeCompact
// is cheap enough to call per block, starts at most one compaction at a
// time, and reports applied floors through the onApplied callback (the
// ordering node advances its in-memory ledger floors there).
type Manager struct {
	store     Store
	policy    Policy
	onApplied func(floors map[string]uint64)

	mu      sync.Mutex
	running bool
	again   bool // a compaction fell due while one was running
	closed  bool
	wg      sync.WaitGroup
}

// NewManager creates a manager; onApplied may be nil.
func NewManager(store Store, policy Policy, onApplied func(map[string]uint64)) *Manager {
	return &Manager{store: store, policy: policy, onApplied: onApplied}
}

// Policy returns the manager's policy.
func (m *Manager) Policy() Policy { return m.policy }

// MaybeCompact starts a background compaction when the policy says one
// is due and none is already running. One that falls due while a pass
// runs makes that pass plan again when it is done: a pass waits out the
// block puts in flight, and the trigger that fell due meanwhile may be
// the last one the channel sees.
func (m *Manager) MaybeCompact() {
	if !m.policy.Enabled() || !m.policy.Due(m.store.RetentionState()) {
		return
	}
	m.mu.Lock()
	if m.running || m.closed {
		m.again = m.running
		m.mu.Unlock()
		return
	}
	m.running, m.again = true, false
	m.wg.Add(1)
	m.mu.Unlock()
	go func() {
		defer m.wg.Done()
		for again := true; again; {
			err := m.compactOnce()
			if err != nil {
				fmt.Fprintf(os.Stderr, "retention: compaction failed: %v\n", err)
			}
			m.mu.Lock()
			again = m.again && !m.closed && err == nil
			m.running, m.again = again, false
			m.mu.Unlock()
		}
	}()
}

// Compact runs one compaction synchronously (the explicit admin
// trigger): unlike the policy-driven background pass, it skips the
// trigger slack and prunes everything the policy allows right now. A
// no-op when retention is disabled or nothing is prunable.
func (m *Manager) Compact() error {
	m.mu.Lock()
	if m.running || m.closed {
		m.mu.Unlock()
		return nil // a background pass is already doing the work
	}
	m.running = true
	m.mu.Unlock()
	err := m.compact(m.policy.ForcePlan(m.store.RetentionState()))
	m.mu.Lock()
	m.running = false
	m.mu.Unlock()
	return err
}

func (m *Manager) compactOnce() error {
	return m.compact(m.policy.Plan(m.store.RetentionState()))
}

func (m *Manager) compact(floors map[string]uint64) error {
	if len(floors) == 0 {
		return nil
	}
	applied, err := m.store.CompactTo(floors)
	if err != nil {
		return err
	}
	if m.onApplied != nil && len(applied) > 0 {
		m.onApplied(applied)
	}
	return nil
}

// Close waits for an in-flight compaction and prevents new ones. Call
// before closing the underlying store.
func (m *Manager) Close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.wg.Wait()
}
