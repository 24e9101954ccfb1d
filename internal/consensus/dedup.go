package consensus

import (
	"encoding/binary"
	"slices"
	"sort"

	"repro/internal/wire"
)

// clientDedup records which request sequence numbers of one client were
// executed, exactly, even when they execute out of order (across leader
// changes, state transfers, or a Byzantine leader proposing a client's
// requests out of order). mark keeps one invariant by itself:
//   - every seq <= floor is executed;
//   - the executed seqs above the floor are runs, sorted, disjoint and
//     apart (a missing seq between any two, and between the floor and the
//     first);
//   - floor never trails the client's highest executed seq by more than
//     windowCap.
//
// The last rule is what bounds the state. A seq windowCap below one its
// client already had executed is one nothing still waits to execute: a
// replica pools fewer than windowCap requests in all, so such a request was
// lost, or a restart's jump (see NewClient) left it behind. A jump is one
// run, a lost request one hole, and either is absorbed into the floor once
// windowCap later requests executed. A client whose requests execute in
// order keeps no runs at all.
type clientDedup struct {
	client string // the one copy of the id every decoded request of the client shares
	floor  uint64
	runs   []seqRun
}

// seqRun is the executed sequences first..last.
type seqRun struct{ first, last uint64 }

// contains reports whether seq was executed.
func (d *clientDedup) contains(seq uint64) bool {
	if seq <= d.floor || len(d.runs) == 0 {
		return seq <= d.floor
	}
	i := d.runAbove(seq)
	return i < len(d.runs) && d.runs[i].first <= seq
}

// runAbove returns the index of the first run that ends at or above seq.
func (d *clientDedup) runAbove(seq uint64) int {
	return sort.Search(len(d.runs), func(i int) bool { return d.runs[i].last >= seq })
}

// mark records seq as executed. The next sequence of a client with no runs
// only moves the floor.
func (d *clientDedup) mark(seq uint64) {
	if seq <= d.floor {
		return
	}
	if seq == d.floor+1 && len(d.runs) == 0 {
		d.floor = seq
		return
	}
	i := d.runAbove(seq)
	joinsNext := i < len(d.runs) && d.runs[i].first-1 <= seq
	joinsPrev := i > 0 && d.runs[i-1].last+1 == seq
	switch {
	case joinsNext && d.runs[i].first <= seq:
		return // executed already
	case joinsNext && joinsPrev:
		d.runs[i-1].last = d.runs[i].last
		d.runs = slices.Delete(d.runs, i, i+1)
	case joinsNext:
		d.runs[i].first = seq
	case joinsPrev:
		d.runs[i-1].last = seq
	default:
		d.runs = slices.Insert(d.runs, i, seqRun{seq, seq})
	}
	if top := d.runs[len(d.runs)-1].last; top-d.floor > windowCap {
		d.floor = top - windowCap
	}
	absorbed := 0
	for _, r := range d.runs {
		if r.first > d.floor+1 {
			break
		}
		d.floor = max(d.floor, r.last)
		absorbed++
	}
	d.runs = slices.Delete(d.runs, 0, absorbed)
}

// marshalInto serializes the dedup state: uint64 floor, a uvarint count of
// the uint64s that follow, then the runs in order, a one-seq run as its seq
// and a longer one as its last seq and then its first. Only a longer run
// writes a seq below the one before it, so the two read apart, and a table
// of one-seq runs is the sorted list of executed seqs above the floor.
func (d *clientDedup) marshalInto(w *wire.Writer) {
	w.PutUint64(d.floor)
	n := len(d.runs)
	for _, r := range d.runs {
		if r.last != r.first {
			n++
		}
	}
	w.PutUvarint(uint64(n))
	for _, r := range d.runs {
		if r.last != r.first {
			w.PutUint64(r.last)
		}
		w.PutUint64(r.first)
	}
}

// marshalledSize bounds the length of marshalInto's encoding.
func (d *clientDedup) marshalledSize() int {
	return 8 + binary.MaxVarintLen64 + 16*len(d.runs)
}

// readClientDedup deserializes dedup state and reports whether it is what
// marshalInto writes for a state that keeps the invariant; nothing else
// decodes.
func readClientDedup(rd *wire.Reader) (clientDedup, bool) {
	d := clientDedup{floor: rd.Uint64()}
	words := make([]uint64, rd.Count(8))
	for i := range words {
		words[i] = rd.Uint64()
	}
	if rd.Err() != nil {
		return clientDedup{}, false
	}
	prev := d.floor // the highest executed seq so far
	for i := 0; i < len(words); i++ {
		r := seqRun{words[i], words[i]}
		if i+1 < len(words) && words[i+1] < words[i] {
			r.first = words[i+1]
			i++
		}
		if r.first <= prev || r.first-prev < 2 || r.last-d.floor > windowCap {
			return clientDedup{}, false
		}
		d.runs = append(d.runs, r)
		prev = r.last
	}
	return d, true
}
