package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/cryptoutil"
	"repro/internal/fabric"
)

// releaseLog is one channel's released blocks, shared by the orderer that
// releases them and every Deliver stream that reads them. It puts blocks
// released out of order back into block-number order, retains the newest
// DefaultHistoryLimit of them, and wakes the streams waiting for the next
// one. A stream is a cursor into it: what a stream costs is its position,
// so a stream whose reader stops pins no block that left the window.
type releaseLog struct {
	mu      sync.Mutex
	started bool
	first   uint64                   // the block the log started at
	next    uint64                   // the number the next released block carries
	pending map[uint64]*fabric.Block // put above next, waiting for the blocks below
	window  []*fabric.Block          // the newest released blocks: window[i] is block floor+i
	floor   uint64
	wake    chan struct{} // closed by the next release; nil while no stream waits
}

// start sets the cursor at number: no block below it is released. Only
// the first call counts; it reports whether this call was that one.
func (l *releaseLog) start(number uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.started {
		return false
	}
	l.started, l.first, l.next, l.floor = true, number, number, number
	return true
}

// cursor returns the block the log started at and the number of the next
// block it releases; ok is false before start.
func (l *releaseLog) cursor() (first, next uint64, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.first, l.next, l.started
}

// put releases b, a block at or above the cursor, once every block below
// it is released. It returns the blocks that joined the window, in number
// order: none while b waits for a lower one. The result is a view the log
// never writes again. put allocates nothing unless b must wait or the
// window is trimmed.
func (l *releaseLog) put(b *fabric.Block) []*fabric.Block {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := b.Header.Number; n != l.next {
		if n > l.next {
			if l.pending == nil {
				l.pending = make(map[uint64]*fabric.Block)
			}
			l.pending[n] = b
		}
		return nil
	}
	from := len(l.window)
	for ; b != nil; b = l.pending[l.next] {
		delete(l.pending, l.next)
		l.window = append(l.window, b)
		l.next++
	}
	released := l.window[from:]
	// Trim with slack: the copy amortizes to O(1) per release instead of
	// recurring on every block once the window is full. The copy leaves
	// the views handed out intact.
	if over := len(l.window) - DefaultHistoryLimit; over > DefaultHistoryLimit/4 {
		l.window = append(l.window[:0:0], l.window[over:]...)
		l.floor += uint64(over)
	}
	if l.wake != nil {
		close(l.wake)
		l.wake = nil
	}
	return released
}

// oldest returns the window's first block, nil while it is empty.
func (l *releaseLog) oldest() *fabric.Block {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.window) == 0 {
		return nil
	}
	return l.window[0]
}

// at returns block n when the window holds it. Otherwise, when n lies
// below the window, it returns the window's first block; and when block n
// is not released yet, a channel the next release closes.
func (l *releaseLog) at(n uint64) (b, oldest *fabric.Block, wake <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case len(l.window) > 0 && n < l.floor:
		return nil, l.window[0], nil
	case n >= l.floor && n-l.floor < uint64(len(l.window)):
		return l.window[n-l.floor], nil, nil
	}
	if l.wake == nil {
		l.wake = make(chan struct{})
	}
	return nil, nil, l.wake
}

// releaseLogs is an orderer's release logs, one per channel, and the
// Deliver streams that read them: the one Deliver that the frontend and
// the solo orderer both serve.
type releaseLogs struct {
	// sync is the history source below a window: the ordering nodes'
	// durable ledgers. Nil when the orderer has none (solo).
	sync *blockSync
	// closedErr ends the streams that the orderer's close cuts off, and
	// refuses the Deliver calls made after it.
	closedErr error
	// closing is canceled by close; it cancels every open stream.
	closing context.Context
	cancel  context.CancelFunc

	mu     sync.Mutex
	logs   map[string]*releaseLog
	closed bool
	wg     sync.WaitGroup // one per open stream
}

func newReleaseLogs(sync *blockSync, closedErr error) *releaseLogs {
	closing, cancel := context.WithCancel(context.Background())
	return &releaseLogs{
		sync:      sync,
		closedErr: closedErr,
		closing:   closing,
		cancel:    cancel,
		logs:      make(map[string]*releaseLog),
	}
}

// log returns the channel's release log, creating it.
func (r *releaseLogs) log(channel string) *releaseLog {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.logLocked(channel)
}

func (r *releaseLogs) logLocked(channel string) *releaseLog {
	l, ok := r.logs[channel]
	if !ok {
		l = &releaseLog{}
		r.logs[channel] = l
	}
	return l
}

// deliver opens a block stream for a channel, positioned by seek: history
// below the window is replayed first, then the stream follows the
// channel's releases with no gaps or duplicates. A seek past the current
// head emits nothing until that block is released. With a stop position
// the stream closes after the stop block; otherwise it tails releases
// until canceled. A Newest seek starts at the first block released after
// the call.
func (r *releaseLogs) deliver(channel string, seek fabric.SeekInfo) (*fabric.BlockStream, error) {
	if err := seek.Validate(); err != nil {
		return nil, err
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, r.closedErr
	}
	d := &streamDeliverer{
		seek:      seek,
		log:       r.logLocked(channel),
		stream:    fabric.NewBlockStream(),
		sync:      r.sync,
		channel:   channel,
		closing:   r.closing,
		closedErr: r.closedErr,
	}
	r.wg.Add(1)
	r.mu.Unlock()

	if seek.Kind == fabric.SeekNewest {
		_, next, ok := d.log.cursor()
		d.next, d.newest = next, !ok
	}
	stop := context.AfterFunc(r.closing, d.stream.Cancel)
	go func() {
		defer r.wg.Done()
		defer stop()
		d.run()
	}()
	return d.stream, nil
}

// close refuses further streams, cancels the open ones and waits for them
// to end.
func (r *releaseLogs) close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.cancel()
	r.wg.Wait()
}

// streamDeliverer drives one Deliver stream: a cursor, next, into its
// channel's release log. Blocks the window holds are pushed from it; a
// cursor below the window's floor catches up through the history source,
// linked to the window's first block; a cursor at the head waits for the
// next release.
type streamDeliverer struct {
	seek   fabric.SeekInfo
	log    *releaseLog
	stream *fabric.BlockStream

	// sync is the history source below the window: the ordering nodes'
	// durable ledgers of channel. It is asked for a range linked into an
	// anchor the stream already trusts, for a bounded range before
	// anything anchors the chain (f+1 signatures on its stop block anchor
	// it instead), and — so that an unbounded replay of an idle chain does
	// not stall until fresh releases arrive — for a quorum-agreed head
	// block. Nil when the orderer has none (solo): history below the
	// window is then unavailable.
	sync    *blockSync
	channel string
	// closing is the orderer's close; a stream it cancels ends with
	// closedErr.
	closing   context.Context
	closedErr error

	next uint64 // next block number owed to the stream
	// newest marks a Newest seek made before the log started: next is the
	// log's first block, once it is known.
	newest bool
}

// run executes the delivery plan on its own goroutine.
func (d *streamDeliverer) run() {
	// No chain reaches block MaxUint64, so a stop there never closes the
	// stream: it is Fabric's idiom for "no stop", and is served as one
	// (Stop+1 below must not wrap).
	if d.seek.Stop == math.MaxUint64 {
		d.seek.HasStop = false
	}
	if d.seek.Kind != fabric.SeekNewest && !d.replay() {
		return
	}
	for {
		if d.newest {
			if first, _, ok := d.log.cursor(); ok {
				d.next, d.newest = first, false
			}
		}
		b, oldest, wake := d.log.at(d.next)
		switch {
		case b != nil:
			if !d.emit(b) {
				return
			}
		case oldest != nil:
			if !d.fetchAndEmit(d.next, oldest.Header.Number, oldest.Header.PrevHash) {
				return
			}
		default:
			select {
			case <-wake:
			case <-d.stream.Canceled():
				d.canceled()
				return
			}
		}
	}
}

// replay starts an Oldest or Specified seek without waiting for a release
// where the history source can resolve it: a bounded seek that ends below
// the window fetches its exact range, proven by its stop block; with an
// empty window a quorum-agreed head block anchors the replay up to the
// chain's tip. It returns false when the stream is finished.
func (d *streamDeliverer) replay() bool {
	d.next = d.seek.FirstNumber()
	if d.sync == nil {
		return true
	}
	oldest := d.log.oldest()
	// A bounded seek that ends below the window resolves by an exact
	// fetch of just [start, stop] with no anchor — both when the window is
	// empty and when it starts far above the stop (replaying the whole gap
	// up to the window only to discard it would cost a full-chain fetch).
	// It keeps no proof, so f+1 signatures on the stop block make that
	// block the anchor and the hash links below it prove the rest (f+1
	// matching copies where the nodes' keys are not distributed or the
	// blocks are unsigned).
	if d.seek.HasStop && (oldest == nil || d.seek.Stop < oldest.Header.Number) {
		blocks, err := d.sync.fetch(d.stream.Canceled(), d.channel, d.next, d.seek.Stop+1, nil, false)
		if err == nil {
			for _, b := range blocks {
				if !d.emit(b) {
					return false
				}
			}
			d.stream.Close(nil)
			return false
		}
		if floor, ok := d.resumeFloor(err); ok {
			// The cluster compacted part of the range away; an Oldest
			// seek restarts at the retention floor.
			d.next = floor
		}
		// Otherwise unresolvable here (e.g. the stop block is not sealed
		// yet, or the seek addressed pruned blocks — the fetch below the
		// window rediscovers and reports that).
	}
	if oldest == nil {
		if head, err := d.sync.head(d.stream.Canceled(), d.channel); err == nil {
			if d.next < head.Header.Number && !d.fetchAndEmit(d.next, head.Header.Number, head.Header.PrevHash) {
				return false
			}
			if head.Header.Number >= d.next && !d.emit(head) {
				return false
			}
		}
	}
	return true
}

// emit pushes the next block and handles the stop position; it returns
// false when the stream is finished (stop reached or canceled).
func (d *streamDeliverer) emit(b *fabric.Block) bool {
	if d.seek.HasStop && b.Header.Number > d.seek.Stop {
		d.stream.Close(nil)
		return false
	}
	if !d.stream.Push(b) {
		d.canceled()
		return false
	}
	d.next = b.Header.Number + 1
	if d.seek.HasStop && b.Header.Number == d.seek.Stop {
		d.stream.Close(nil)
		return false
	}
	return true
}

// canceled ends a canceled stream: cleanly when its consumer canceled it,
// with closedErr when the orderer closed.
func (d *streamDeliverer) canceled() {
	if d.closing.Err() != nil {
		d.stream.Close(d.closedErr)
		return
	}
	d.stream.Close(nil)
}

// fetchAndEmit retrieves and emits blocks [from, to) from the history
// source, linked into anchorPrev (the header hash of block to-1). Without
// a verifiable copy the stream ends with fabric.ErrBlockNotFound naming
// the range. A range the cluster compacted away resumes at the retention
// floor for an Oldest seek (oldest means oldest available, as in Fabric)
// and fails the stream with the typed pruned error — surfaced to wire
// clients as NOT_FOUND — for seeks that addressed the pruned blocks
// explicitly.
func (d *streamDeliverer) fetchAndEmit(from, to uint64, anchorPrev cryptoutil.Digest) bool {
	for {
		if d.sync == nil {
			d.stream.Close(fmt.Errorf("%w: blocks %d..%d fell out of the retained history",
				fabric.ErrBlockNotFound, from, to-1))
			return false
		}
		blocks, err := d.sync.fetch(d.stream.Canceled(), d.channel, from, to, &anchorPrev, false)
		if err != nil {
			if floor, ok := d.resumeFloor(err); ok {
				if floor >= to {
					// The whole range is gone everywhere; the caller's
					// anchor block itself is the next thing served.
					d.next = to
					return true
				}
				d.next = floor
				from = floor
				continue
			}
			var pe *fabric.PrunedError
			select {
			case <-d.stream.Canceled():
				// A fetch aborted by a cancel is not a failure.
				d.canceled()
			default:
				if !errors.As(err, &pe) {
					err = fmt.Errorf("%w: blocks %d..%d fell out of the retained history: %w",
						fabric.ErrBlockNotFound, from, to-1, err)
				}
				d.stream.Close(err)
			}
			return false
		}
		for _, b := range blocks {
			if !d.emit(b) {
				return false
			}
		}
		return true
	}
}

// resumeFloor reports whether a fetch failure is a retention pruning the
// stream may transparently skip: only an Oldest seek (which asks for the
// oldest available history) resumes, and only when its stop — if any —
// is still at or above the floor; the floor must make progress so a
// lying peer cannot loop the stream.
func (d *streamDeliverer) resumeFloor(err error) (uint64, bool) {
	var pe *fabric.PrunedError
	if !errors.As(err, &pe) {
		return 0, false
	}
	if d.seek.Kind != fabric.SeekOldest || pe.Floor <= d.next {
		return 0, false
	}
	if d.seek.HasStop && d.seek.Stop < pe.Floor {
		return 0, false
	}
	return pe.Floor, true
}
