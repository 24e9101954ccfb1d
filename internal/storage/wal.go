// Package storage is the durable backbone of the ordering service: one
// unified, segmented append-only commit log per node — decision, block,
// and channel-meta records multiplexed into the same files, committed in
// group waves of exactly one fsync each — plus an atomic checkpointer for
// consensus snapshots. The paper's replicas (Section 5.2) survive crashes
// because decisions hit disk before their effects become externally
// visible; this package supplies exactly that discipline, and recovery is
// a single typed walk that rebuilds the decision replay stream and the
// per-channel block index together.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/storage/vfs"
)

// WAL errors.
var (
	ErrClosed  = errors.New("storage: wal closed")
	ErrCorrupt = errors.New("storage: wal corrupt")
	ErrTooBig  = errors.New("storage: record exceeds segment size")
	ErrEmpty   = errors.New("storage: empty record")
	// ErrLogPoisoned reports a log permanently failed by a commit-wave
	// fsync error. After a failed fsync the kernel has dropped the dirty
	// pages — a retry would report success without the data ever reaching
	// the disk — so the only safe reaction is to stop acking: every
	// append after the poisoning fails with an error wrapping this one.
	ErrLogPoisoned = errors.New("storage: commit log poisoned by a failed fsync")
)

// RecordCorruptError is the typed per-record corruption report: a framed
// record whose CRC (or framing) no longer checks out, located precisely
// enough for a repair path to act on it. Channel and Num are filled in by
// the block store when the record is a block record (the repairable
// kind); they are zero for decision and channel-meta records. It unwraps
// to ErrCorrupt, so existing errors.Is checks keep working.
type RecordCorruptError struct {
	// Segment is the path of the segment file holding the record.
	Segment string
	// Offset is the byte offset of the record's frame inside the segment.
	Offset int64
	// Index is the record's log index (0 when unknown — e.g. a scan that
	// failed before indices were assigned).
	Index uint64
	// Channel and Num identify the durable block the record carried, when
	// the caller knows it is a block record.
	Channel string
	Num     uint64
	// Err is the underlying cause (crc mismatch, torn frame, read error).
	Err error
}

func (e *RecordCorruptError) Error() string {
	msg := fmt.Sprintf("storage: corrupt record %d in %s at offset %d", e.Index, e.Segment, e.Offset)
	if e.Channel != "" {
		msg += fmt.Sprintf(" (block %s/%d)", e.Channel, e.Num)
	}
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

func (e *RecordCorruptError) Unwrap() error { return ErrCorrupt }

// recordHeaderSize is the fixed per-record framing overhead: a uint32
// payload length followed by a uint32 CRC32 (IEEE) of the payload.
const recordHeaderSize = 8

// maxRecordSize bounds a single record to protect replay against corrupt
// length prefixes.
const maxRecordSize = 64 << 20

// segSuffix names WAL segment files; the stem is the zero-padded index of
// the segment's first record, so lexical order is replay order.
const segSuffix = ".seg"

// WALConfig parameterizes a write-ahead log.
type WALConfig struct {
	// Dir holds the segment files. Created if missing.
	Dir string
	// SegmentBytes is the rotation threshold: once the active segment
	// reaches it, the next append opens a new segment. Default 4 MiB.
	SegmentBytes int64
	// NoSync skips the fsync on every group commit. Only for tests and
	// benchmarks that measure the non-durable append path.
	NoSync bool
	// SyncHook, when set, runs at the start of every commit wave, before
	// the wave's group is taken. Test instrumentation: stalling it holds
	// every enqueued record in the not-yet-durable state, which is how the
	// write-ahead gating and crash-window tests open the window between
	// enqueue and fsync.
	SyncHook func()
	// FS is the filesystem seam (nil = the real OS filesystem). Fault
	// injection threads a faultfs through here.
	FS vfs.FS
	// Metrics, when set, receives wave/fsync/bytes/segment instrumentation.
	Metrics *obs.StorageMetrics
}

func (c WALConfig) withDefaults() WALConfig {
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 4 << 20
	}
	c.FS = vfs.OrOS(c.FS)
	return c
}

// segment describes one on-disk segment file.
type segment struct {
	path  string
	first uint64 // index of the segment's first record
	last  uint64 // index of the segment's last record (first-1 when empty)
	size  int64  // committed bytes (maintained for the active segment too)
	// offsets[i] is the byte offset of record first+i inside the file:
	// the index that turns a record read into a single seek-and-read
	// instead of a decode-from-zero prefix scan. Rebuilt for free during
	// the open-time validation walk; appended to on every commit.
	offsets []int64
}

// WAL is a segmented append-only log. Records are opaque byte strings,
// identified by a dense index assigned at append time (first record of an
// empty log is index 1). Appends from any number of goroutines are
// coalesced by the log's single commit loop into one fsync per group (group
// commit), so concurrent load amortizes the dominant durability cost.
type WAL struct {
	cfg WALConfig

	// mu guards the segment table, the active file, and the pending group.
	// The commit loop holds it while it writes a group (not across the
	// wave's fsync); Replay and PruneTo hold it to read or drop sealed
	// segments.
	mu       sync.Mutex
	segments []segment // sorted by first index; last entry is active
	active   vfs.File
	// syncMu is held by a wave across its fsync of the active file, which
	// it does outside mu: a repair takes it before it closes that file.
	// Taken after mu, never before.
	syncMu sync.Mutex
	size   int64  // bytes in the active segment
	next   uint64 // index the next append receives

	// pending is the group awaiting the next wave, in enqueue order, and
	// spare the last group's slice, for reuse. waveGen counts the groups
	// taken; flushed is one past the newest generation a wave was asked
	// for; lazyTimer fires at lazyDue.
	pending   []pendingRec
	spare     []pendingRec
	waveGen   atomic.Uint64
	flushed   atomic.Uint64
	lazyTimer *time.Timer
	lazyDue   time.Time
	notify    chan struct{}
	closeCh   chan struct{}
	closed    bool
	// onCommit, set by the log's owner before the first append, runs on
	// the commit loop per record of a finished wave, in log order, before
	// the record's token completes; it dispatches on the record kind.
	onCommit func(idx uint64, rec []byte, channel string, err error)
	// failErr poisons the log after a failed commit: the file may hold a
	// torn frame past which nothing can be appended safely (recovery
	// would truncate records acknowledged after it), so every later
	// append fails with the original error.
	failErr error
	wg      sync.WaitGroup

	// commitBuf is the reusable frame-assembly buffer of the (single)
	// committing goroutine; reusing it keeps the hot append path free of
	// per-group allocations.
	commitBuf []byte

	// syncs counts every fsync issued against the log's segment files
	// (commit waves, rotations, close). The one-fsync-per-wave contract of
	// the unified commit log is asserted against it in tests.
	syncs atomic.Uint64

	// metrics is never nil (normalized to a nop bundle at open).
	metrics *obs.StorageMetrics
}

// fsync makes a segment file's committed records durable and counts the
// flush. Segments are preallocated, so the wave path only needs a data
// flush (fdatasync on Linux): the inode's size never changes on append,
// which keeps the journal out of the hot path.
func (w *WAL) fsync(f vfs.File) error {
	w.syncs.Add(1)
	w.metrics.FsyncTotal.Inc()
	if h := w.metrics.FsyncSeconds; h != nil {
		start := time.Now()
		err := f.Datasync()
		h.ObserveDuration(time.Since(start))
		return err
	}
	return f.Datasync()
}

// SyncCount returns how many fsyncs the log has issued so far.
func (w *WAL) SyncCount() uint64 { return w.syncs.Load() }

// OpenWAL opens (or creates) the log in cfg.Dir, scans every segment,
// truncates a torn tail in the newest segment, and starts the commit
// loop. A torn or partially written record anywhere but the tail of the
// newest segment is reported as ErrCorrupt: crashes only ever tear the end
// of the log, so mid-log damage means real corruption.
func OpenWAL(cfg WALConfig) (*WAL, error) {
	cfg = cfg.withDefaults()
	if err := cfg.FS.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	w := &WAL{
		cfg:     cfg,
		next:    1,
		notify:  make(chan struct{}, 1),
		closeCh: make(chan struct{}),
		metrics: cfg.Metrics.OrNop(),
	}
	if err := w.scan(); err != nil {
		return nil, err
	}
	if err := w.openActive(); err != nil {
		return nil, err
	}
	w.lazyTimer = time.AfterFunc(lazyFlushDelay, w.lazyFlush)
	w.lazyTimer.Stop()
	w.metrics.Segments.Set(int64(len(w.segments)))
	w.wg.Add(1)
	go w.commitLoop()
	return w, nil
}

// scan builds the segment table, validating every record and truncating the
// torn tail of the newest segment.
func (w *WAL) scan() error {
	entries, err := w.cfg.FS.ReadDir(w.cfg.Dir)
	if err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		first, err := strconv.ParseUint(strings.TrimSuffix(name, segSuffix), 10, 64)
		if err != nil {
			continue // foreign file; ignore
		}
		segs = append(segs, segment{path: filepath.Join(w.cfg.Dir, name), first: first})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })

	// Validate every segment first: the log's tail — the region where a
	// crash may legitimately have torn frames or left preallocated space
	// — is everything after the last segment that holds a record, which
	// is only known once all segments are walked (a crash during rotation
	// can leave BOTH a preallocated tail on the sealed segment and an
	// all-zero successor).
	counts := make([]uint64, len(segs))
	valids := make([]int64, len(segs))
	offsetTables := make([][]int64, len(segs))
	verrs := make([]error, len(segs))
	lastData := -1
	for i := range segs {
		counts[i], valids[i], offsetTables[i], verrs[i] = validateSegment(w.cfg.FS, segs[i].path)
		if counts[i] > 0 {
			lastData = i
		}
	}
	for i := range segs {
		seg := &segs[i]
		if err := verrs[i]; err != nil {
			if i < lastData {
				// Mid-log damage is real corruption, not a crash artifact;
				// the typed error locates it for the repair/degrade paths.
				return &RecordCorruptError{
					Segment: seg.path,
					Offset:  valids[i],
					Index:   seg.first + counts[i],
					Err:     err,
				}
			}
			// Torn or preallocated tail: drop everything from the first
			// bad frame on.
			if terr := w.cfg.FS.Truncate(seg.path, valids[i]); terr != nil {
				return fmt.Errorf("storage: truncating torn tail: %w", terr)
			}
		}
		seg.last = seg.first + counts[i] - 1 // first-1 when empty
		seg.size = valids[i]
		seg.offsets = offsetTables[i]
		if i > 0 && seg.first != segs[i-1].last+1 {
			return fmt.Errorf("%w: segment %s does not follow index %d",
				ErrCorrupt, seg.path, segs[i-1].last)
		}
	}
	w.segments = segs
	if len(segs) > 0 {
		w.next = segs[len(segs)-1].last + 1
	}
	return nil
}

// validateSegment walks a segment file and returns the number of valid
// records, the byte offset of the first invalid frame (== file size when
// the whole file is valid), and the byte offset of every valid record. A
// non-nil error means the file has a torn or corrupt tail starting at
// validLen.
func validateSegment(fs vfs.FS, path string) (count uint64, validLen int64, offsets []int64, err error) {
	f, err := fs.Open(path)
	if err != nil {
		return 0, 0, nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return 0, 0, nil, err
	}
	size := info.Size()
	var hdr [recordHeaderSize]byte
	for validLen < size {
		if size-validLen < recordHeaderSize {
			return count, validLen, offsets, fmt.Errorf("torn header at %d", validLen)
		}
		if _, err := f.ReadAt(hdr[:], validLen); err != nil {
			return count, validLen, offsets, err
		}
		n := binary.BigEndian.Uint32(hdr[:4])
		sum := binary.BigEndian.Uint32(hdr[4:])
		if n == 0 {
			// Records are never empty (every kind carries at least a tag
			// byte), and a preallocated-but-unwritten tail reads as zero
			// headers: treat it as the torn tail.
			return count, validLen, offsets, fmt.Errorf("preallocated or torn tail at %d", validLen)
		}
		if n > maxRecordSize || int64(n) > size-validLen-recordHeaderSize {
			return count, validLen, offsets, fmt.Errorf("torn record at %d", validLen)
		}
		payload := make([]byte, n)
		if _, err := f.ReadAt(payload, validLen+recordHeaderSize); err != nil {
			return count, validLen, offsets, err
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return count, validLen, offsets, fmt.Errorf("crc mismatch at %d", validLen)
		}
		offsets = append(offsets, validLen)
		validLen += recordHeaderSize + int64(n)
		count++
	}
	return count, validLen, offsets, nil
}

// openActive opens the newest segment for appending, creating the first
// segment of an empty log. The active segment is preallocated to the full
// segment size: appends then overwrite reserved space instead of growing
// the inode, which is what lets the commit wave flush with fdatasync. The
// committed size is the scanned one (the CRC walk's frontier), never the
// file size — past it lies preallocated space.
func (w *WAL) openActive() error {
	if len(w.segments) == 0 {
		w.segments = append(w.segments, segment{
			path:  w.segmentPath(w.next),
			first: w.next,
			last:  w.next - 1,
		})
	}
	seg := &w.segments[len(w.segments)-1]
	f, err := w.cfg.FS.OpenFile(seg.path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	if err := f.Preallocate(w.cfg.SegmentBytes); err != nil {
		f.Close()
		return fmt.Errorf("storage: preallocating segment: %w", err)
	}
	w.active = f
	w.size = seg.size
	return w.syncDir()
}

func (w *WAL) segmentPath(first uint64) string {
	return filepath.Join(w.cfg.Dir, fmt.Sprintf("%020d%s", first, segSuffix))
}

// syncDir fsyncs the log directory so segment creations and deletions
// survive a crash.
func (w *WAL) syncDir() error {
	if w.cfg.NoSync {
		return nil
	}
	return w.cfg.FS.SyncDir(w.cfg.Dir)
}

// rotateLocked seals the active segment and opens the next one. The
// sealed segment is trimmed to its committed size before the next one is
// created, so only the newest segment ever carries a preallocated tail —
// the invariant the open-time scan relies on (mid-log validation errors
// mean real corruption, not leftover preallocation).
func (w *WAL) rotateLocked() error {
	if !w.cfg.NoSync {
		if err := w.fsync(w.active); err != nil {
			return err
		}
	}
	if err := w.active.Truncate(w.size); err != nil {
		return err
	}
	if !w.cfg.NoSync {
		// Full fsync (not fdatasync): the truncate is a metadata change,
		// and the scan invariant — only the newest segment may carry a
		// preallocated tail — must not depend on journal ordering
		// relative to the next segment's creation.
		w.syncs.Add(1)
		w.metrics.FsyncTotal.Inc()
		if err := w.active.Sync(); err != nil {
			return err
		}
	}
	if err := w.active.Close(); err != nil {
		return err
	}
	w.segments = append(w.segments, segment{
		path:  w.segmentPath(w.next),
		first: w.next,
		last:  w.next - 1,
	})
	f, err := w.cfg.FS.OpenFile(w.segments[len(w.segments)-1].path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := f.Preallocate(w.cfg.SegmentBytes); err != nil {
		f.Close()
		return err
	}
	w.active = f
	w.size = 0
	w.metrics.SegmentRotations.Inc()
	w.metrics.Segments.Set(int64(len(w.segments)))
	return w.syncDir()
}

// Replay streams every record in index order to fn. It must not run
// concurrently with Append (callers replay once, right after OpenWAL,
// before going live). A non-nil error from fn aborts the walk.
func (w *WAL) Replay(fn func(idx uint64, rec []byte) error) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, seg := range w.segments {
		if seg.last < seg.first {
			continue // empty segment
		}
		if err := replaySegment(w.cfg.FS, seg, fn); err != nil {
			return err
		}
	}
	return nil
}

func replaySegment(fs vfs.FS, seg segment, fn func(idx uint64, rec []byte) error) error {
	raw, err := fs.ReadFile(seg.path)
	if err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	// Walk only the committed bytes: the active segment's file runs on
	// into preallocated space past the frontier.
	if int64(len(raw)) > seg.size {
		raw = raw[:seg.size]
	}
	idx := seg.first
	off := 0
	for off < len(raw) {
		if len(raw)-off < recordHeaderSize {
			return &RecordCorruptError{Segment: seg.path, Offset: int64(off), Index: idx,
				Err: errors.New("torn header")}
		}
		n := int(binary.BigEndian.Uint32(raw[off : off+4]))
		sum := binary.BigEndian.Uint32(raw[off+4 : off+8])
		if n > maxRecordSize || n > len(raw)-off-recordHeaderSize {
			return &RecordCorruptError{Segment: seg.path, Offset: int64(off), Index: idx,
				Err: errors.New("torn record")}
		}
		payload := raw[off+recordHeaderSize : off+recordHeaderSize+n]
		if crc32.ChecksumIEEE(payload) != sum {
			return &RecordCorruptError{Segment: seg.path, Offset: int64(off), Index: idx,
				Err: errors.New("crc mismatch")}
		}
		off += recordHeaderSize + n
		if err := fn(idx, payload); err != nil {
			return err
		}
		idx++
	}
	return nil
}

// ErrRecordGone reports a record that vanished under a reader: its index
// fell below the pruning floor (or its segment file was deleted)
// between the caller's index lookup and the read. Callers that prune
// concurrently (the block store under retention) translate it by
// re-checking their floor.
var ErrRecordGone = errors.New("storage: record pruned during read")

// ReadRecords streams the records with the given indices (which must be
// sorted ascending and committed) to fn, in order. Each record is a
// single positioned read through the per-segment offset index — no
// prefix decoding — so serving a window of blocks costs O(window) reads
// regardless of where in its segment the window starts. Records whose
// index fell below the pruning floor (a concurrent compaction) surface
// as ErrRecordGone. A non-nil error from fn aborts the walk.
func (w *WAL) ReadRecords(idxs []uint64, fn func(idx uint64, rec []byte) error) error {
	if len(idxs) == 0 {
		return nil
	}
	w.mu.Lock()
	segs := append([]segment(nil), w.segments...)
	w.mu.Unlock()

	pos := 0
	for _, seg := range segs {
		if pos >= len(idxs) {
			break
		}
		if seg.last < seg.first || seg.last < idxs[pos] {
			continue
		}
		f, err := w.cfg.FS.Open(seg.path)
		if err != nil {
			if os.IsNotExist(err) {
				return fmt.Errorf("%w: segment %s", ErrRecordGone, seg.path)
			}
			return fmt.Errorf("storage: %w", err)
		}
		for pos < len(idxs) && idxs[pos] >= seg.first && idxs[pos] <= seg.last {
			idx := idxs[pos]
			rec, err := readRecordAt(f, seg.offsets[idx-seg.first])
			if err != nil {
				f.Close()
				return &RecordCorruptError{Segment: seg.path,
					Offset: seg.offsets[idx-seg.first], Index: idx, Err: err}
			}
			if err := fn(idx, rec); err != nil {
				f.Close()
				return err
			}
			pos++
		}
		f.Close()
	}
	if pos < len(idxs) {
		return fmt.Errorf("%w: record %d", ErrRecordGone, idxs[pos])
	}
	return nil
}

// readRecordAt reads and CRC-checks one framed record at a known offset.
func readRecordAt(f vfs.File, off int64) ([]byte, error) {
	var hdr [recordHeaderSize]byte
	if _, err := f.ReadAt(hdr[:], off); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	sum := binary.BigEndian.Uint32(hdr[4:])
	if n > maxRecordSize {
		return nil, fmt.Errorf("oversized record (%d bytes)", n)
	}
	payload := make([]byte, n)
	if _, err := f.ReadAt(payload, off+recordHeaderSize); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("crc mismatch at offset %d", off)
	}
	return payload, nil
}

// SegmentSpan is one segment's record-index span and committed size, as
// reported to retention (the manifest's per-segment liveness summary is
// keyed by these spans).
type SegmentSpan struct {
	// First and Last bound the record indices stored in the segment
	// (Last < First for an empty segment).
	First, Last uint64
	// Size is the segment's committed bytes.
	Size int64
}

// SegmentSpans returns the index span of every retained segment, oldest
// first (the last entry is the active segment).
func (w *WAL) SegmentSpans() []SegmentSpan {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]SegmentSpan, 0, len(w.segments))
	for _, seg := range w.segments {
		out = append(out, SegmentSpan{First: seg.first, Last: seg.last, Size: seg.size})
	}
	return out
}

// RecordSpan locates a record's framed bytes on disk: the segment file
// holding it, the byte offset of its frame, and the frame's length
// (header + payload). ErrRecordGone when the record was pruned. Fault
// injectors use it to corrupt a specific record at rest; the scrubber's
// corruption reports carry the same coordinates.
func (w *WAL) RecordSpan(idx uint64) (path string, off, length int64, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, seg := range w.segments {
		if idx < seg.first || idx > seg.last {
			continue
		}
		i := idx - seg.first
		end := seg.size
		if int(i)+1 < len(seg.offsets) {
			end = seg.offsets[i+1]
		}
		return seg.path, seg.offsets[i], end - seg.offsets[i], nil
	}
	return "", 0, 0, fmt.Errorf("%w: record %d", ErrRecordGone, idx)
}

// RecordSizeBytes sums the framed on-disk size of the given records
// (sorted ascending), read off the per-segment offset tables — no disk
// access. Records already pruned contribute zero (their bytes are gone).
// Retention uses it to attribute the log's size to channels.
func (w *WAL) RecordSizeBytes(idxs []uint64) int64 {
	if len(idxs) == 0 {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	var total int64
	pos := 0
	for _, seg := range w.segments {
		if pos >= len(idxs) {
			break
		}
		for pos < len(idxs) && idxs[pos] < seg.first {
			pos++ // pruned below the oldest retained segment
		}
		for pos < len(idxs) && idxs[pos] >= seg.first && idxs[pos] <= seg.last {
			i := idxs[pos] - seg.first
			end := seg.size
			if int(i)+1 < len(seg.offsets) {
				end = seg.offsets[i+1]
			}
			total += end - seg.offsets[i]
			pos++
		}
	}
	return total
}

// SizeBytes returns the committed on-disk size of the log (the sum of
// all segment sizes). Retention policies use it as the bytes trigger.
func (w *WAL) SizeBytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	var total int64
	for _, seg := range w.segments {
		total += seg.size
	}
	return total
}

// FirstIndex returns the index of the oldest retained record (0 when the
// log is empty).
func (w *WAL) FirstIndex() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, seg := range w.segments {
		if seg.last >= seg.first {
			return seg.first
		}
	}
	return 0
}

// LastIndex returns the index of the newest record (0 when the log is
// empty).
func (w *WAL) LastIndex() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.next - 1
}

// PruneTo deletes sealed segments every record of which has index below
// keepFrom. The active segment is never deleted, so pruning keeps whole-
// segment granularity: some records below keepFrom may survive until their
// segment rotates out.
func (w *WAL) PruneTo(keepFrom uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	kept := make([]segment, 0, len(w.segments))
	removed := false
	var rmErr error
	for i, seg := range w.segments {
		if rmErr == nil && i < len(w.segments)-1 && seg.last < keepFrom {
			if err := w.cfg.FS.Remove(seg.path); err != nil && !os.IsNotExist(err) {
				rmErr = err // removal failed: the file is still there, keep it
			} else {
				removed = true
				continue
			}
		}
		kept = append(kept, seg)
	}
	w.segments = kept
	if rmErr != nil {
		return fmt.Errorf("storage: %w", rmErr)
	}
	if removed {
		w.metrics.PruneTotal.Inc()
		w.metrics.Segments.Set(int64(len(w.segments)))
		return w.syncDir()
	}
	return nil
}

// RewriteRecord atomically replaces the payload of committed record idx —
// the repair primitive under the scrubber: a record whose on-disk frame
// rotted is rewritten from a known-good copy (for blocks, one re-fetched
// from f+1-verified peers). The whole segment is rewritten to a temp file
// and renamed into place, so a crash mid-repair leaves either the old
// (corrupt) or the new (repaired) segment, never a torn one. The new
// payload may differ in length from the old frame (a repaired block often
// carries a merged signature set); subsequent records shift and the
// offset index is adjusted. Safe against concurrent appends and reads:
// the rewrite holds the log lock, and readers re-open segment files per
// read.
func (w *WAL) RewriteRecord(idx uint64, rec []byte) error {
	if int64(len(rec))+recordHeaderSize > w.cfg.SegmentBytes {
		return ErrTooBig
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	si := -1
	for i := range w.segments {
		if idx >= w.segments[i].first && idx <= w.segments[i].last {
			si = i
			break
		}
	}
	if si < 0 {
		return fmt.Errorf("%w: record %d", ErrRecordGone, idx)
	}
	seg := &w.segments[si]
	off := seg.offsets[idx-seg.first]
	oldEnd := seg.size
	if int(idx-seg.first)+1 < len(seg.offsets) {
		oldEnd = seg.offsets[idx-seg.first+1]
	}

	raw, err := w.cfg.FS.ReadFile(seg.path)
	if err != nil {
		return fmt.Errorf("storage: rewriting record %d: %w", idx, err)
	}
	if int64(len(raw)) > seg.size {
		raw = raw[:seg.size] // drop the preallocated tail of the active segment
	}
	if int64(len(raw)) < oldEnd {
		return fmt.Errorf("storage: rewriting record %d: segment %s shorter than its index", idx, seg.path)
	}
	fixed := make([]byte, 0, int64(len(raw))+int64(len(rec))+recordHeaderSize-(oldEnd-off))
	fixed = append(fixed, raw[:off]...)
	var hdr [recordHeaderSize]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(rec)))
	binary.BigEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(rec))
	fixed = append(fixed, hdr[:]...)
	fixed = append(fixed, rec...)
	fixed = append(fixed, raw[oldEnd:]...)

	tmp := seg.path + ".repair"
	f, err := w.cfg.FS.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("storage: rewriting record %d: %w", idx, err)
	}
	if _, err := f.Write(fixed); err != nil {
		f.Close()
		return fmt.Errorf("storage: rewriting record %d: %w", idx, err)
	}
	if !w.cfg.NoSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("storage: rewriting record %d: %w", idx, err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("storage: rewriting record %d: %w", idx, err)
	}

	active := si == len(w.segments)-1
	if active {
		// The open append handle points at the inode the rename is about
		// to unlink; swap it for a handle on the repaired file afterwards,
		// once no wave is syncing it.
		w.syncMu.Lock()
		defer w.syncMu.Unlock()
		if err := w.active.Close(); err != nil {
			return fmt.Errorf("storage: rewriting record %d: %w", idx, err)
		}
	}
	if err := w.cfg.FS.Rename(tmp, seg.path); err != nil {
		return fmt.Errorf("storage: rewriting record %d: %w", idx, err)
	}
	if err := w.syncDir(); err != nil {
		return fmt.Errorf("storage: rewriting record %d: %w", idx, err)
	}

	delta := (int64(len(rec)) + recordHeaderSize) - (oldEnd - off)
	for i := int(idx-seg.first) + 1; i < len(seg.offsets); i++ {
		seg.offsets[i] += delta
	}
	seg.size += delta
	if active {
		w.size = seg.size
		nf, err := w.cfg.FS.OpenFile(seg.path, os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			w.failErr = fmt.Errorf("%w: reopening active segment after repair: %v", ErrLogPoisoned, err)
			return fmt.Errorf("storage: rewriting record %d: %w", idx, err)
		}
		if err := nf.Preallocate(w.cfg.SegmentBytes); err != nil {
			nf.Close()
			w.failErr = fmt.Errorf("%w: preallocating active segment after repair: %v", ErrLogPoisoned, err)
			return fmt.Errorf("storage: rewriting record %d: %w", idx, err)
		}
		w.active = nf
	}
	return nil
}

// Close drains the commit loop, fsyncs, and closes the active segment.
// Appends after it fail with ErrClosed; every append accepted before it
// is committed by the loop's final waves.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.mu.Unlock()
	close(w.closeCh)
	w.wg.Wait()
	w.lazyTimer.Stop()
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.cfg.NoSync {
		if err := w.fsync(w.active); err != nil {
			w.active.Close()
			return err
		}
	}
	// Trim the preallocated tail so a cleanly closed segment is exact-
	// size on disk (reopen re-preallocates the active one).
	if err := w.active.Truncate(w.size); err != nil {
		w.active.Close()
		return err
	}
	return w.active.Close()
}
