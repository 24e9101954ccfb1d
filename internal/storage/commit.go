package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"log/slog"
	"time"
)

// This file is the append path of the unified commit log: the WAL's one
// group-commit loop. A node's durable state is ONE append-only log —
// decision, block, and channel-meta records multiplexed into the same
// segment files — so a commit wave is: take everything pending, write the
// group into the active segment, and issue exactly one fsync. Appenders
// are completed through per-record durability Tokens, which is what lets
// callers enqueue (AppendAsync) and gate later effects on durability
// instead of blocking for the fsync.

const (
	// maxWaveRecords caps how many records merge into a single wave; the
	// surplus carries into the next wave.
	maxWaveRecords = 1024
	// lazyFlushDelay bounds how long a lazily enqueued record (a block put
	// — nothing gates on its durability, the decision gate is the only one
	// the protocol requires) may sit before a wave is forced for it. Lazy
	// records normally ride the next wave an eager record triggers, for
	// free; the timer only matters when traffic stops.
	lazyFlushDelay = 5 * time.Millisecond
)

// Token tracks one enqueued record's durability: it completes when the
// group commit that carried the record has fsynced (or failed). Tokens are
// how the write-ahead discipline survives asynchronous logging — the
// consensus loop enqueues a decision and moves on, and everything
// externally visible (dissemination, client acks) waits on the token.
type Token struct {
	done chan struct{}
	err  error
	idx  uint64
}

func newToken() *Token { return &Token{done: make(chan struct{})} }

// doneToken returns an already-completed token (for records that were
// already durable, e.g. replay duplicates).
func doneToken(err error) *Token {
	t := newToken()
	t.err = err
	close(t.done)
	return t
}

// Wait blocks until the record is durable and returns the commit error,
// if any.
func (t *Token) Wait() error {
	<-t.done
	return t.err
}

// Done reports whether the record's group commit has completed, without
// blocking.
func (t *Token) Done() bool {
	select {
	case <-t.done:
		return true
	default:
		return false
	}
}

// Index returns the record's log index. Valid only after Wait returned
// nil (indices are assigned at write time, not enqueue time).
func (t *Token) Index() uint64 { return t.idx }

// appendReq is one enqueued append awaiting group commit.
type appendReq struct {
	rec      []byte
	tok      *Token
	onCommit func(idx uint64, err error)
}

// Append durably writes one record and returns its index. It blocks until
// the record (and every record batched into the same group commit) is
// fsynced. Safe for concurrent use; concurrency is what makes group commit
// pay off.
func (w *WAL) Append(rec []byte) (uint64, error) {
	tok, err := w.AppendAsync(rec)
	if err != nil {
		return 0, err
	}
	if err := tok.Wait(); err != nil {
		return 0, err
	}
	return tok.idx, nil
}

// AppendAsync enqueues one record for the next group commit and returns
// immediately with a durability token; the record's index is assigned at
// write time (Token.Index after a successful Wait). Records commit in
// enqueue order. This is the storage half of asynchronous decision
// logging: the caller keeps running and gates externally visible effects
// on the token instead of blocking the hot path on the fsync.
func (w *WAL) AppendAsync(rec []byte) (*Token, error) {
	return w.enqueue(rec, nil, false)
}

// enqueue adds one append to the pending group. FIFO is the ordering
// contract recovery relies on: decision records stay dense in sequence
// order and block records replay in append order. onCommit, when set, runs
// on the commit loop (in log order) before the token completes; it must be
// cheap. A lazy enqueue triggers no wave of its own: the record rides
// whatever wave the next eager enqueue (in steady state, the next
// decision) triggers, so block persistence costs zero extra fsyncs while
// traffic flows; the lazy timer forces a wave only when it stops.
func (w *WAL) enqueue(rec []byte, onCommit func(idx uint64, err error), lazy bool) (*Token, error) {
	if int64(len(rec))+recordHeaderSize > w.cfg.SegmentBytes {
		return nil, ErrTooBig
	}
	req := &appendReq{rec: rec, tok: newToken(), onCommit: onCommit}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil, ErrClosed
	}
	if err := w.failErr; err != nil {
		w.mu.Unlock()
		return nil, err
	}
	w.pending = append(w.pending, req)
	// The flush timer is armed on the first lazy enqueue after a wave, for
	// the wave generation it waits on. A wave that takes the group starts
	// the next generation, so the timer of an earlier one does nothing: it
	// would otherwise force an fsync for lazy records younger than
	// lazyFlushDelay, which nothing waits for and the next decision queues
	// behind.
	arm := lazy && !w.lazyArmed
	if arm {
		w.lazyArmed = true
	}
	gen := w.waveGen
	w.mu.Unlock()
	switch {
	case !lazy:
		w.kick()
	case arm:
		time.AfterFunc(lazyFlushDelay, func() { w.lazyFlush(gen) })
	}
	return req.tok, nil
}

// lazyFlush is the lazy timer armed in wave generation gen firing: it kicks
// a wave unless one has taken the group since.
func (w *WAL) lazyFlush(gen uint64) {
	w.mu.Lock()
	stale := w.waveGen != gen
	w.mu.Unlock()
	if !stale {
		w.kick()
	}
}

// kick wakes the commit loop (non-blocking: one pending wake-up is enough).
func (w *WAL) kick() {
	select {
	case w.notify <- struct{}{}:
	default:
	}
}

// commitLoop is the log's single committing goroutine: every record
// reaches disk through its waves. It is greedy — a wave starts as soon as
// anything is pending, and whatever arrives during its fsync forms the
// next wave.
func (w *WAL) commitLoop() {
	defer w.wg.Done()
	for {
		select {
		case <-w.notify:
		case <-w.closeCh:
			// Close refused further appends before signalling, so whatever
			// remains pending is the final drain.
			for w.wave() {
			}
			return
		}
		w.wave()
	}
}

// wave is one group commit: take the pending group, write it into the
// active segment (page cache only, indices assigned in enqueue order),
// issue the single fsync the whole wave pays, then complete the tokens.
// It reports whether there was anything to commit.
func (w *WAL) wave() bool {
	w.mu.Lock()
	idle := len(w.pending) == 0
	w.mu.Unlock()
	if idle {
		return false
	}

	// The hook runs before the group is taken: everything enqueued while
	// a test stalls it therefore lands in this one wave, which is what
	// lets the single-fsync and write-ahead tests shape waves
	// deterministically.
	if hook := w.cfg.SyncHook; hook != nil {
		hook()
	}

	w.mu.Lock()
	group := w.pending
	w.pending = nil
	w.lazyArmed = false // the group is being taken; new lazy arrivals re-arm
	w.waveGen++
	if len(group) > maxWaveRecords {
		group, w.pending = group[:maxWaveRecords:maxWaveRecords], group[maxWaveRecords:]
	}
	leftovers := len(w.pending) > 0
	err := w.failErr
	dirty := false
	if err == nil {
		if dirty, err = w.writeGroupLocked(group); err != nil {
			// The file may hold a torn frame past which nothing can be
			// appended safely: every later append fails with this error.
			w.failErr = err
		}
	}
	file := w.active
	w.mu.Unlock()
	if leftovers {
		w.kick()
	}

	w.metrics.WaveTotal.Inc()
	w.metrics.WaveSize.Observe(float64(len(group)))
	if err == nil && dirty && !w.cfg.NoSync {
		if err = w.fsync(file); err != nil {
			err = w.poison(err)
		}
	}
	if err != nil {
		w.metrics.WaveFailures.Inc()
		slog.Error("storage: commit wave failed", "dir", w.cfg.Dir, "records", len(group), "err", err)
	}
	for _, req := range group {
		req.tok.err = err
		if req.onCommit != nil {
			req.onCommit(req.tok.idx, err)
		}
		close(req.tok.done)
	}
	return true
}

// poison marks the log permanently failed (fsyncgate fail-fast) and
// returns the poisoning error: after a failed fsync the kernel has dropped
// the dirty pages, so a retry would falsely succeed. Every later append —
// and the failed wave's own tokens — fail with a typed error wrapping
// both ErrLogPoisoned and the original cause.
func (w *WAL) poison(err error) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failErr == nil {
		w.failErr = fmt.Errorf("%w: %v", ErrLogPoisoned, err)
		w.metrics.LogPoisoned.Inc()
	}
	return w.failErr
}

// Poisoned returns the poisoning error when the log has failed fail-fast
// (nil while healthy). The consensus durability poller and the node's
// dissemination gate observe it through the append tokens; this probe is
// for health surfaces that want to ask directly.
func (w *WAL) Poisoned() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.failErr
}

// writeGroupLocked writes one group's frames into the active segment
// (rotating as needed) and assigns record indices, without fsyncing the
// frames it leaves in the active segment. dirty reports whether that
// segment now holds unsynced bytes. Only the commit loop calls it, with
// the log lock held.
func (w *WAL) writeGroupLocked(group []*appendReq) (dirty bool, err error) {
	buf := w.commitBuf[:0]
	defer func() { w.commitBuf = buf[:0] }()
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		// Positioned write at the committed frontier: the file offset is
		// meaningless in a preallocated segment (i_size sits at the
		// segment size, not the frontier).
		if _, err := w.active.WriteAt(buf, w.size); err != nil {
			return err
		}
		w.metrics.BytesWritten.Add(uint64(len(buf)))
		w.size += int64(len(buf))
		w.segments[len(w.segments)-1].size = w.size
		buf = buf[:0]
		dirty = true
		return nil
	}
	for _, req := range group {
		framed := int64(len(req.rec)) + recordHeaderSize
		if w.size+int64(len(buf))+framed > w.cfg.SegmentBytes && w.size+int64(len(buf)) > 0 {
			if err := flush(); err != nil {
				return dirty, err
			}
			if err := w.rotateLocked(); err != nil {
				return dirty, err
			}
		}
		req.tok.idx = w.next
		w.next++
		seg := &w.segments[len(w.segments)-1]
		seg.last = req.tok.idx
		seg.offsets = append(seg.offsets, w.size+int64(len(buf)))
		var hdr [recordHeaderSize]byte
		binary.BigEndian.PutUint32(hdr[:4], uint32(len(req.rec)))
		binary.BigEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(req.rec))
		buf = append(buf, hdr[:]...)
		buf = append(buf, req.rec...)
	}
	if err := flush(); err != nil {
		return dirty, err
	}
	return dirty, nil
}
