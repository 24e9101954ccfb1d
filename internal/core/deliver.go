package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/cryptoutil"
	"repro/internal/fabric"
)

// streamDeliverer drives one Deliver subscription for any orderer: it
// stitches replayed history (the orderer's retained window, plus ranges
// fetched from the history source) and the live queue into one gapless,
// duplicate-free stream, honoring the seek's start and stop positions.
// Frontend and solo orderer share this loop; only the history source
// differs.
type streamDeliverer struct {
	seek   fabric.SeekInfo
	hist   []*fabric.Block // retained released blocks, contiguous
	q      *blockQueue     // live feed
	stream *fabric.BlockStream

	// sync is the history source below the retained window: the ordering
	// nodes' durable ledgers of channel. It is asked for a range linked
	// into an anchor the stream already trusts, for a bounded range before
	// anything anchors the chain (f+1 signatures on its stop block anchor
	// it instead), and — so that an unbounded replay of an idle chain does
	// not stall until fresh live traffic arrives — for a quorum-agreed head
	// block. Nil when the orderer has none (solo): history below the
	// retained window is then unavailable.
	sync    *blockSync
	channel string
	// closedErr is what the stream closes with when the live queue closes
	// under it (the orderer shut down).
	closedErr error

	next uint64 // next block number owed to the stream
}

// run executes the delivery plan. It must be called on its own goroutine;
// the caller owns queue registration and stream cleanup.
func (d *streamDeliverer) run() {
	d.next = d.seek.FirstNumber()
	// No chain reaches block MaxUint64, so a stop there never closes the
	// stream: it is Fabric's idiom for "no stop", and is served as one
	// (Stop+1 below must not wrap).
	if d.seek.Stop == math.MaxUint64 {
		d.seek.HasStop = false
	}

	var pendingLive *fabric.Block
	if d.seek.Kind != fabric.SeekNewest {
		// With no retained history, try to resolve the replay without
		// waiting for live traffic: a bounded seek fetches its exact range,
		// proven by its stop block; otherwise a quorum-agreed head block
		// anchors the replay up to the current chain tip (the live loop's
		// gap fill covers anything sealed after the probe).
		anchored := false
		// A bounded seek that ends below the retained window resolves by
		// an exact fetch of just [start, stop] with no anchor — both when
		// there is no history at all and when the window starts far above
		// the stop (replaying the whole gap up to the window only to discard
		// it would cost a full-chain fetch). It keeps no proof, so f+1
		// signatures on the stop block make that block the anchor and the
		// hash links below it prove the rest (f+1 matching copies where the
		// nodes' keys are not distributed or the blocks are unsigned).
		belowWindow := len(d.hist) == 0 || (d.seek.HasStop && d.seek.Stop < d.hist[0].Header.Number)
		if belowWindow && d.seek.HasStop && d.sync != nil {
			blocks, err := d.sync.fetch(d.stream.Canceled(), d.channel, d.next, d.seek.Stop+1, nil, false)
			if err == nil {
				for _, b := range blocks {
					if !d.emit(b) {
						return
					}
				}
				d.stream.Close(nil)
				return
			}
			if floor, ok := d.resumeFloor(err); ok {
				// The cluster compacted part of the range away; an Oldest
				// seek restarts at the retention floor (the fall-through
				// paths fetch from d.next).
				d.next = floor
			}
			// Otherwise unresolvable here (e.g. the stop block is not
			// sealed yet, or the seek addressed pruned blocks — the fetch
			// below rediscovers and reports that): try the head anchor,
			// then the live-anchor path.
		}
		if len(d.hist) == 0 && d.sync != nil {
			if head, err := d.sync.head(d.stream.Canceled(), d.channel); err == nil {
				if d.next < head.Header.Number {
					if !d.fetchAndEmit(d.next, head.Header.Number, head.Header.PrevHash) {
						return
					}
				}
				if head.Header.Number >= d.next && !d.emit(head) {
					return
				}
				anchored = true
			}
		}
		// Establish the trusted anchor for any range that must be fetched:
		// the oldest retained block, or — with no history for the channel —
		// the first released live block.
		var anchorNum uint64
		var anchorPrev cryptoutil.Digest
		switch {
		case anchored:
			// History already replayed up to the quorum head; the live
			// loop takes over from d.next.
		case len(d.hist) > 0:
			anchorNum = d.hist[0].Header.Number
			anchorPrev = d.hist[0].Header.PrevHash
		default:
			b, ok := d.nextLive()
			if !ok {
				return
			}
			pendingLive = b
			anchorNum = b.Header.Number
			anchorPrev = b.Header.PrevHash
		}
		if !anchored && d.next < anchorNum {
			if !d.fetchAndEmit(d.next, anchorNum, anchorPrev) {
				return
			}
		}
		for _, b := range d.hist { // contiguous, and the fetch above reached hist[0]
			if b.Header.Number < d.next {
				continue
			}
			if !d.emit(b) {
				return
			}
		}
	}

	first := d.seek.Kind == fabric.SeekNewest
	handleLive := func(b *fabric.Block) bool {
		if first {
			d.next = b.Header.Number
			first = false
		}
		if b.Header.Number < d.next {
			return true // duplicate of the replayed history
		}
		if b.Header.Number > d.next {
			// The release path never skips; this bridges the probed head
			// and a frontend's first release above it. Back-fill the gap,
			// anchored at the live block.
			if !d.fetchAndEmit(d.next, b.Header.Number, b.Header.PrevHash) {
				return false
			}
		}
		return d.emit(b)
	}
	if pendingLive != nil && !handleLive(pendingLive) {
		return
	}
	for {
		b, ok := d.nextLive()
		if !ok {
			return
		}
		if !handleLive(b) {
			return
		}
	}
}

// emit pushes the next block and handles the stop position; it returns
// false when the stream is finished (stop reached or canceled).
func (d *streamDeliverer) emit(b *fabric.Block) bool {
	if d.seek.HasStop && b.Header.Number > d.seek.Stop {
		d.stream.Close(nil)
		return false
	}
	if !d.stream.Push(b) {
		d.stream.Close(nil) // canceled
		return false
	}
	d.next = b.Header.Number + 1
	if d.seek.HasStop && b.Header.Number == d.seek.Stop {
		d.stream.Close(nil)
		return false
	}
	return true
}

// fetchAndEmit retrieves and emits blocks [from, to) from the history
// source, linked into anchorPrev (the header hash of block to-1), closing
// the stream with an error when no verifiable copy exists.
// A range the cluster compacted away resumes at the retention floor for
// an Oldest seek (oldest means oldest available, as in Fabric) and fails
// the stream with the typed pruned error — surfaced to wire clients as
// NOT_FOUND — for seeks that addressed the pruned blocks explicitly.
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
			// A fetch aborted by the consumer's own cancel is a clean
			// stop, not a failure.
			select {
			case <-d.stream.Canceled():
				d.stream.Close(nil)
			default:
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

// nextLive waits for the next live block, honoring cancellation and
// orderer shutdown.
func (d *streamDeliverer) nextLive() (*fabric.Block, bool) {
	select {
	case b, ok := <-d.q.out:
		if !ok {
			d.stream.Close(d.closedErr)
			return nil, false
		}
		return b, true
	case <-d.stream.Canceled():
		d.stream.Close(nil)
		return nil, false
	}
}
