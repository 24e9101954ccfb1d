package consensus

import (
	"encoding/binary"
	"slices"

	"repro/internal/wire"
)

// clientDedup tracks which request sequence numbers of one client have been
// executed, providing exact at-most-once semantics even when requests
// execute out of sequence order (possible across leader changes, state
// transfers, or a Byzantine leader proposing a client's requests out of
// order). It keeps a contiguous floor plus a sparse set above it; the
// sparse set is compacted into the floor each time an instance is
// delivered.
type clientDedup struct {
	client string          // the one copy of the id every decoded request of the client shares
	floor  uint64          // every seq in [1, floor] has been executed
	sparse map[uint64]bool // nil until a sequence above the floor is marked
	// lowest memoizes the smallest sequence in sparse (0 = unknown,
	// recompute on demand). compact runs once per decided instance per
	// client; without the memo its find-the-lowest scan walks the whole
	// sparse set every time, because a session-gap jump leaves a
	// permanent hole right above the floor. The memo makes compact O(1)
	// amortized on the hot path.
	lowest uint64
}

// contains reports whether seq was executed.
func (d *clientDedup) contains(seq uint64) bool {
	return seq <= d.floor || (len(d.sparse) > 0 && d.sparse[seq])
}

// mark records seq as executed. The next sequence with nothing above the
// floor moves the floor at once — the state compact reaches for it anyway —
// so a client whose requests execute in order never touches the sparse set.
func (d *clientDedup) mark(seq uint64) {
	if seq <= d.floor {
		return
	}
	if seq == d.floor+1 && len(d.sparse) == 0 {
		d.floor = seq
		return
	}
	wasEmpty := len(d.sparse) == 0
	if d.sparse == nil {
		d.sparse = make(map[uint64]bool)
	}
	d.sparse[seq] = true
	if wasEmpty || (d.lowest != 0 && seq < d.lowest) {
		// An unknown memo (0) over a non-empty set stays unknown: seq may
		// not be the true minimum.
		d.lowest = seq
	}
}

// lowestSparse returns the smallest sequence in the sparse set (which
// must be non-empty), recomputing the memo only when a floor advance
// invalidated it.
func (d *clientDedup) lowestSparse() uint64 {
	if d.lowest == 0 {
		for s := range d.sparse {
			if d.lowest == 0 || s < d.lowest {
				d.lowest = s
			}
		}
	}
	return d.lowest
}

// sessionGap is the sequence gap beyond which compaction concludes the
// client started a new session (clients base each session's sequences on
// wall-clock nanos). A gap this large can never fill: the request pool
// holds at most maxPendingRequests outstanding sequences per client.
const sessionGap = maxPendingRequests

// compactHeadroom is how far below a new session's lowest executed
// sequence the floor parks. A same-session request displaced by a leader
// change can execute after later sequences of its session, so jumping the
// floor to lowest-1 could swallow it; the in-flight window is bounded by
// the proposal pipeline (instanceWindow/2 batches), which this headroom
// comfortably exceeds.
const compactHeadroom = 1 << 15

// compact advances the floor over contiguous executed sequences. Two gap
// rules keep the floor moving across client sessions:
// a stuck floor more than sessionGap below the sparse set belongs to a
// previous session and jumps to compactHeadroom below the new session's
// lowest sequence; once the client's progress since then exceeds the
// headroom, nothing in flight can still land in the remaining hole and it
// closes. A sparse set that held a session's hole open is replaced once the
// floor passed it, because a map never shrinks.
func (d *clientDedup) compact() {
	held := len(d.sparse)
	if held == 0 {
		return
	}
	if !d.sparse[d.floor+1] {
		lowest := d.lowestSparse()
		if lowest > d.floor+sessionGap {
			d.floor = lowest - compactHeadroom
		} else if lowest > d.floor+1 && len(d.sparse) >= compactHeadroom {
			d.floor = lowest - 1
		}
	}
	for d.sparse[d.floor+1] {
		d.floor++
		delete(d.sparse, d.floor)
		if d.floor == d.lowest {
			d.lowest = 0 // consumed; recomputed on demand
		}
	}
	if held >= compactHeadroom && len(d.sparse) < held/4 {
		kept := make(map[uint64]bool, len(d.sparse))
		for s := range d.sparse {
			kept[s] = true
		}
		d.sparse = kept
	}
}

// marshalInto serializes the dedup state: uint64 floor, uvarint count,
// sorted uint64 seqs. sortBuf is space for the sort (it allocates only if
// that is shorter than the sparse set).
func (d *clientDedup) marshalInto(w *wire.Writer, sortBuf []uint64) {
	w.PutUint64(d.floor)
	seqs := sortBuf[:0]
	for s := range d.sparse {
		seqs = append(seqs, s)
	}
	slices.Sort(seqs)
	w.PutUvarint(uint64(len(seqs)))
	for _, s := range seqs {
		w.PutUint64(s)
	}
}

// marshalledSize bounds the length of marshalInto's encoding.
func (d *clientDedup) marshalledSize() int {
	return 8 + binary.MaxVarintLen64 + 8*len(d.sparse)
}

// readClientDedup deserializes dedup state.
func readClientDedup(r *wire.Reader) *clientDedup {
	d := &clientDedup{floor: r.Uint64()}
	n := r.Uvarint()
	if n == 0 || n > maxPendingRequests {
		return d
	}
	d.sparse = make(map[uint64]bool, n)
	for i := uint64(0); i < n; i++ {
		d.sparse[r.Uint64()] = true
	}
	return d
}
