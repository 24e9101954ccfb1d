package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"log/slog"
	"time"

	"repro/internal/wire"
)

// This file is the append path of the unified commit log: the WAL's one
// group-commit loop. A node's durable state is ONE append-only log —
// decision, block, and channel-meta records multiplexed into the same
// segment files — so a commit wave is: take everything pending, write the
// group into the active segment, and fsync exactly once. Every
// enqueue is lazy: a wave starts only when a caller needs a record durable
// (Token.Flush or Token.Wait) or lazyFlushDelay runs out, so records
// nothing waits for ride the waves that durability-needing work starts.

// lazyFlushDelay bounds how long an enqueued record may sit before a wave
// is forced for it when nobody asks for one. On an ordering node the wave
// that seals a block starts at once (the pipeline flushes the sealing
// decision's token) and carries every decision and block record enqueued
// before it, for free; the timer only matters when traffic stops or the
// newest decisions sealed nothing.
const lazyFlushDelay = 5 * time.Millisecond

// Token is the completion of a run of consecutive records of one kind in
// one commit wave; the runs of a wave share its one channel. It is how the
// write-ahead discipline survives asynchronous logging: the
// consensus loop enqueues a decision and moves on, and everything
// externally visible (dissemination) waits on the token.
type Token struct {
	w    *WAL
	done chan struct{}
	err  error
	idx  uint64 // log index of the run's first record, assigned at write time
	gen  uint64 // the wave generation whose pending group holds the run
	n    uint64 // records in the run
}

// doneToken returns an already-completed token (for records that were
// already durable, e.g. replay duplicates).
func doneToken(err error) *Token {
	t := &Token{done: make(chan struct{}), err: err}
	close(t.done)
	return t
}

// Flush starts the wave that commits the token's records, unless one has
// taken them already, without waiting for it.
func (t *Token) Flush() {
	if t.w != nil {
		t.w.flush(t.gen)
	}
}

// Wait is Flush, then Settle: it returns the commit error, if any.
func (t *Token) Wait() error {
	t.Flush()
	return t.Settle()
}

// Settle blocks until the records are durable without starting a wave:
// they ride whichever wave something else starts, or the lazy timer's.
// It is for watchers that must not cost an fsync of their own.
func (t *Token) Settle() error {
	<-t.done
	return t.err
}

// Done reports whether the records' group commit has completed, without
// blocking.
func (t *Token) Done() bool {
	select {
	case <-t.done:
		return true
	default:
		return false
	}
}

// Index returns the log index of the first record the token covers. Valid
// only after Wait returned nil (indices are assigned at write time, not
// enqueue time).
func (t *Token) Index() uint64 { return t.idx }

// pendingRec is one enqueued record, held by value in the pending group.
// buf, when set, is the pooled encode buffer holding rec (the wave
// recycles it); channel is a block record's, for the commit hook.
type pendingRec struct {
	rec     []byte
	buf     *wire.Writer
	channel string
	tok     *Token
}

// Append durably writes one record and returns its index, blocking until
// its group commit fsynced. Safe for concurrent use; concurrency is what
// makes group commit pay off.
func (w *WAL) Append(rec []byte) (uint64, error) {
	tok, pos, err := w.enqueue(rec, nil, "")
	if err != nil {
		return 0, err
	}
	if err := tok.Wait(); err != nil {
		return 0, err
	}
	return tok.idx + pos, nil
}

// AppendAsync enqueues one record, lazily, and returns its durability
// token at once. Records commit in enqueue order.
func (w *WAL) AppendAsync(rec []byte) (*Token, error) {
	tok, _, err := w.enqueue(rec, nil, "")
	return tok, err
}

// enqueue adds one record to the pending group and returns the token of
// its run and its position in the run. FIFO is the ordering contract
// recovery relies on: decision records stay dense in sequence order and
// block records replay in append order. The group's first record arms the
// lazy timer.
func (w *WAL) enqueue(rec []byte, buf *wire.Writer, channel string) (*Token, uint64, error) {
	if len(rec) == 0 {
		return nil, 0, ErrEmpty
	}
	if int64(len(rec))+recordHeaderSize > w.cfg.SegmentBytes {
		return nil, 0, ErrTooBig
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil, 0, ErrClosed
	}
	if err := w.failErr; err != nil {
		return nil, 0, err
	}
	var tok *Token
	switch n := len(w.pending); {
	case n == 0:
		w.lazyDue = time.Now().Add(lazyFlushDelay)
		w.lazyTimer.Reset(lazyFlushDelay)
		tok = &Token{w: w, done: make(chan struct{}), gen: w.waveGen.Load()}
	case w.pending[n-1].rec[0] != rec[0]:
		last := w.pending[n-1].tok
		tok = &Token{w: w, done: last.done, gen: last.gen} // the wave's one channel
	default:
		tok = w.pending[n-1].tok
	}
	tok.n++
	w.pending = append(w.pending, pendingRec{rec: rec, buf: buf, channel: channel, tok: tok})
	return tok, tok.n - 1, nil
}

// lazyFlush is the lazy timer firing: it kicks a wave if the pending
// group's deadline has passed. A fire armed for a group a wave has taken
// since finds a younger group (or none) and does nothing. The generation
// is read with the group, under the lock: read after, it could name an
// empty successor, whose wake-up an idle wave would swallow while marking
// that group flushed for good.
func (w *WAL) lazyFlush() {
	w.mu.Lock()
	due := len(w.pending) > 0 && !time.Now().Before(w.lazyDue)
	gen := w.waveGen.Load()
	w.mu.Unlock()
	if due {
		w.flush(gen)
	}
}

// flush wakes the commit loop (non-blocking) for the pending group of
// wave generation gen, once per group. A parked loop takes the wake-up at
// once but the group only when it next runs: a second wake-up for the
// same group would start a wave of its own for whatever arrives between.
func (w *WAL) flush(gen uint64) {
	if gen == w.waveGen.Load() && w.flushed.Swap(gen+1) != gen+1 {
		select {
		case w.notify <- struct{}{}:
		default:
		}
	}
}

// commitLoop is the log's single committing goroutine: every record
// reaches disk through its waves. A wave takes everything pending when it
// starts, and whatever arrives during its fsync waits for the next kick.
func (w *WAL) commitLoop() {
	defer w.wg.Done()
	for {
		select {
		case <-w.notify:
		case <-w.closeCh:
			// Close refused further appends before signalling, so whatever
			// remains pending is the final drain.
			w.wave()
			return
		}
		w.wave()
	}
}

// wave is one group commit: take the pending group, write it into the
// active segment (page cache only, indices assigned in enqueue order),
// pay the single fsync the whole wave shares, run the commit hook per
// record, then complete the tokens. With nothing pending it does nothing.
func (w *WAL) wave() {
	w.mu.Lock()
	idle := len(w.pending) == 0
	w.mu.Unlock()
	if idle {
		return
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
	w.pending, w.spare = w.spare, nil
	w.waveGen.Add(1)
	w.lazyTimer.Stop()
	first := w.next
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
	for i := range group {
		p := &group[i]
		if w.onCommit != nil {
			w.onCommit(first+uint64(i), p.rec, p.channel, err)
		}
		if p.buf != nil {
			wire.PutWriter(p.buf)
		}
		p.tok.err = err
	}
	close(group[0].tok.done) // every run's: the wave has one channel
	clear(group)
	w.spare = group[:0] // only the commit loop swaps the two groups
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
func (w *WAL) writeGroupLocked(group []pendingRec) (dirty bool, err error) {
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
	for i := range group {
		p := &group[i]
		framed := int64(len(p.rec)) + recordHeaderSize
		if w.size+int64(len(buf))+framed > w.cfg.SegmentBytes && w.size+int64(len(buf)) > 0 {
			if err := flush(); err != nil {
				return dirty, err
			}
			if err := w.rotateLocked(); err != nil {
				return dirty, err
			}
		}
		if p.tok.idx == 0 {
			p.tok.idx = w.next // the run's first record
		}
		seg := &w.segments[len(w.segments)-1]
		seg.last = w.next
		w.next++
		seg.offsets = append(seg.offsets, w.size+int64(len(buf)))
		var hdr [recordHeaderSize]byte
		binary.BigEndian.PutUint32(hdr[:4], uint32(len(p.rec)))
		binary.BigEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(p.rec))
		buf = append(buf, hdr[:]...)
		buf = append(buf, p.rec...)
	}
	if err := flush(); err != nil {
		return dirty, err
	}
	return dirty, nil
}
