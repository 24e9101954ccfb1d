package fabric

import (
	"errors"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/wire"
)

// This file defines the AtomicBroadcast vocabulary shared by every orderer
// implementation (BFT frontend, solo) and by the external client
// protocol: typed Broadcast statuses, the SeekInfo that positions a Deliver
// stream, and the BlockStream handle a Deliver call returns. The shapes
// mirror Fabric's ab.AtomicBroadcast service (Broadcast acks carry a
// common.Status; Deliver is driven by a SeekInfo of Oldest / Newest /
// Specified positions).

// BroadcastStatus is the typed acknowledgement of a Broadcast call. The
// numeric values follow Fabric's common.Status (HTTP-style codes) so the
// wire protocol can carry them verbatim.
type BroadcastStatus uint16

// Broadcast acknowledgement codes.
const (
	// StatusSuccess: the envelope was accepted for ordering.
	StatusSuccess BroadcastStatus = 200
	// StatusBadRequest: the envelope (or seek) is malformed.
	StatusBadRequest BroadcastStatus = 400
	// StatusNotFound: the channel is not served by this orderer.
	StatusNotFound BroadcastStatus = 404
	// StatusServiceUnavailable: the orderer is closed, overloaded (the
	// per-client backpressure window is full), or lost its cluster.
	StatusServiceUnavailable BroadcastStatus = 503
)

// String names the status like Fabric's common.Status.
func (s BroadcastStatus) String() string {
	switch s {
	case StatusSuccess:
		return "SUCCESS"
	case StatusBadRequest:
		return "BAD_REQUEST"
	case StatusNotFound:
		return "NOT_FOUND"
	case StatusServiceUnavailable:
		return "SERVICE_UNAVAILABLE"
	}
	return "STATUS_" + strconv.Itoa(int(s))
}

// Ordering-service errors shared across orderer implementations.
var (
	// ErrBadRequest mirrors StatusBadRequest.
	ErrBadRequest = errors.New("ordering: bad request")
	// ErrChannelNotFound mirrors StatusNotFound.
	ErrChannelNotFound = errors.New("ordering: channel not found")
	// ErrServiceUnavailable mirrors StatusServiceUnavailable.
	ErrServiceUnavailable = errors.New("ordering: service unavailable")
	// ErrBadSeek rejects a SeekInfo whose stop precedes its start.
	ErrBadSeek = errors.New("ordering: seek stop precedes start")
	// ErrPruned reports that the sought blocks fell below a ledger's
	// retention floor and were compacted away. Surfaced to clients as
	// StatusNotFound (Fabric's NOT_FOUND for unservable seeks). Match
	// with errors.Is; the concrete *PrunedError carries the floor.
	ErrPruned = errors.New("ordering: blocks pruned by retention")
)

// PrunedError is the typed form of ErrPruned: the requested range starts
// below Floor, the first block the responder still retains. errors.Is
// (err, ErrPruned) matches it.
type PrunedError struct {
	// Channel is the chain the seek addressed (may be empty when the
	// responder scopes the error implicitly).
	Channel string
	// Floor is the first retained block number; a client can restart
	// its seek there.
	Floor uint64
}

func (e *PrunedError) Error() string {
	if e.Channel == "" {
		return fmt.Sprintf("ordering: blocks below %d pruned by retention", e.Floor)
	}
	return fmt.Sprintf("ordering: channel %q blocks below %d pruned by retention", e.Channel, e.Floor)
}

// Is matches the ErrPruned sentinel.
func (e *PrunedError) Is(target error) bool { return target == ErrPruned }

// Err converts a status into its sentinel error (nil for StatusSuccess).
func (s BroadcastStatus) Err() error {
	switch s {
	case StatusSuccess:
		return nil
	case StatusBadRequest:
		return ErrBadRequest
	case StatusNotFound:
		return ErrChannelNotFound
	case StatusServiceUnavailable:
		return ErrServiceUnavailable
	}
	return fmt.Errorf("ordering: status %s", s)
}

// StatusOf maps an orderer error back onto the status that describes it
// (the inverse of Err, used by the wire-protocol server).
func StatusOf(err error) BroadcastStatus {
	switch {
	case err == nil:
		return StatusSuccess
	case errors.Is(err, ErrBadRequest), errors.Is(err, ErrBadSeek):
		return StatusBadRequest
	case errors.Is(err, ErrChannelNotFound), errors.Is(err, ErrPruned), errors.Is(err, ErrBlockNotFound):
		return StatusNotFound
	}
	return StatusServiceUnavailable
}

// Broadcaster delivers an assembled envelope to the ordering service
// (protocol step 4) and reports the typed acknowledgement. The
// ordering-service frontend and the solo orderer implement it.
type Broadcaster interface {
	Broadcast(env *Envelope) BroadcastStatus
}

// Orderer is the full AtomicBroadcast surface: Broadcast plus a seekable
// Deliver. The wire-protocol server (internal/clientapi) serves any
// Orderer.
type Orderer interface {
	Broadcaster
	Deliver(channel string, seek SeekInfo) (*BlockStream, error)
}

// ---- SeekInfo ----------------------------------------------------------

// SeekKind selects the start position of a Deliver stream.
type SeekKind uint8

// Seek start positions.
const (
	// SeekNewest starts at the next block released after the call (the
	// live tail; the zero value, matching the pre-seek Deliver semantics).
	SeekNewest SeekKind = iota
	// SeekOldest starts at block 0, replaying the full chain from durable
	// storage before switching to the live stream.
	SeekOldest
	// SeekSpecified starts at SeekInfo.Start. A start past the current
	// head blocks until that block is sealed.
	SeekSpecified
)

func (k SeekKind) String() string {
	switch k {
	case SeekNewest:
		return "newest"
	case SeekOldest:
		return "oldest"
	case SeekSpecified:
		return "specified"
	}
	return "seek-" + strconv.Itoa(int(k))
}

// SeekInfo positions a Deliver stream: a start position and an optional
// inclusive stop. Without a stop the stream continues with live blocks
// until canceled.
type SeekInfo struct {
	// Kind is the start position.
	Kind SeekKind
	// Start is the first block number, meaningful with SeekSpecified.
	Start uint64
	// Stop is the last block delivered (inclusive) when HasStop is set;
	// the stream then closes with a nil error. math.MaxUint64 is never
	// reached, so it means "no stop" (Fabric's idiom for a tailing stream).
	Stop    uint64
	HasStop bool
}

// DeliverNewest seeks the live tail: every block released after the call.
func DeliverNewest() SeekInfo { return SeekInfo{Kind: SeekNewest} }

// DeliverOldest seeks block 0 and replays the full chain before tailing.
func DeliverOldest() SeekInfo { return SeekInfo{Kind: SeekOldest} }

// DeliverFrom seeks a specific block number.
func DeliverFrom(n uint64) SeekInfo { return SeekInfo{Kind: SeekSpecified, Start: n} }

// Through sets the inclusive stop position.
func (s SeekInfo) Through(n uint64) SeekInfo {
	s.Stop = n
	s.HasStop = true
	return s
}

// FirstNumber returns the first block number the seek requests (0 for
// Oldest and Newest; Newest resolves its true start only once the first
// live block arrives).
func (s SeekInfo) FirstNumber() uint64 {
	if s.Kind == SeekSpecified {
		return s.Start
	}
	return 0
}

// Validate rejects malformed seeks.
func (s SeekInfo) Validate() error {
	if s.Kind > SeekSpecified {
		return fmt.Errorf("%w: unknown seek kind %d", ErrBadRequest, s.Kind)
	}
	if s.HasStop && s.Stop < s.FirstNumber() {
		return ErrBadSeek
	}
	return nil
}

// MarshalInto appends the wire encoding of the seek.
//
// Layout: kind byte, uint64 start, bool hasStop, uint64 stop.
func (s SeekInfo) MarshalInto(w *wire.Writer) {
	w.PutByte(byte(s.Kind))
	w.PutUint64(s.Start)
	w.PutBool(s.HasStop)
	w.PutUint64(s.Stop)
}

// ReadSeekInfo decodes a seek written by MarshalInto.
func ReadSeekInfo(r *wire.Reader) SeekInfo {
	return SeekInfo{
		Kind:    SeekKind(r.Byte()),
		Start:   r.Uint64(),
		HasStop: r.Bool(),
		Stop:    r.Uint64(),
	}
}

// ---- BlockStream -------------------------------------------------------

// BlockStream is the consumer handle of a Deliver call: an ordered stream
// of blocks positioned by the SeekInfo, with no gaps or duplicates. The
// channel closes when the stop position was delivered, the stream was
// canceled, or the orderer shut down; Err then reports why (nil for a
// clean stop or cancel).
//
// Push and Close are the producer side, used by orderer implementations.
type BlockStream struct {
	c    chan *Block
	done chan struct{}

	cancelOnce sync.Once
	closeOnce  sync.Once
	err        error
}

// streamBuffer decouples the producer from a briefly slow consumer without
// hiding sustained backpressure (a stalled consumer blocks Push, which the
// producer converts into its own flow control).
const streamBuffer = 16

// NewBlockStream creates an open stream (producer side).
func NewBlockStream() *BlockStream {
	return &BlockStream{
		c:    make(chan *Block, streamBuffer),
		done: make(chan struct{}),
	}
}

// Blocks returns the ordered block channel.
func (s *BlockStream) Blocks() <-chan *Block { return s.c }

// Cancel stops the stream from the consumer side: the producer observes
// the cancellation on its next Push and closes the stream.
func (s *BlockStream) Cancel() {
	s.cancelOnce.Do(func() { close(s.done) })
}

// Err reports why the stream ended. Valid after Blocks() is closed.
func (s *BlockStream) Err() error { return s.err }

// Canceled returns a channel closed by Cancel (producer side).
func (s *BlockStream) Canceled() <-chan struct{} { return s.done }

// Push delivers one block to the consumer, blocking while the consumer is
// behind. It returns false once the stream was canceled.
func (s *BlockStream) Push(b *Block) bool {
	select {
	case <-s.done:
		return false
	default:
	}
	select {
	case s.c <- b:
		return true
	case <-s.done:
		return false
	}
}

// Close ends the stream with the given terminal error (nil for a clean
// stop). Idempotent; only the first call's error sticks.
func (s *BlockStream) Close(err error) {
	s.closeOnce.Do(func() {
		s.err = err
		close(s.c)
	})
}
