// Package transport provides the messaging substrate the consensus protocol
// and the ordering service run on. Two implementations share one interface:
//
//   - An in-process network with pluggable per-link latency (LAN or the WAN
//     matrix of internal/wan) and an optional per-sender egress bandwidth
//     model, both arithmetic on absolute times: Send charges the message
//     to its sender's virtual NIC (which is what makes throughput fall as
//     blocks are disseminated to more receivers, Figure 7 of the paper, and
//     large PROPOSE batches the dominant cost for 1–4 KB envelopes), adds
//     the propagation delay, and one scheduler per network delivers it when
//     due, links staying FIFO: a flooded Gigabit NIC carries 125 MB/s and
//     a 100 µs hop takes 0.13 ms on Linux, where the scheduler waits on a
//     timerfd. Elsewhere it waits on a runtime timer (on Linux that makes a
//     hop 1.1 ms), and the timing tests' bounds are checked on Linux only.
//   - A TCP transport (length-prefixed frames) for multi-process deployments
//     driven by cmd/ordernode and cmd/frontend.
//
// The in-process network also hosts the fault-injection hooks used by the
// test suite: message drops, partitions, and per-link filters.
package transport

import (
	"errors"
	"time"
)

// Addr identifies an endpoint on a network: an ordering node, a frontend, or
// a client.
type Addr string

// Message is the unit of communication. Type is interpreted by the layer
// above (consensus message kinds, block delivery, ...); the transport treats
// the payload as opaque bytes.
//
// Payload is immutable from Send onward and from Inbox onward. The sender
// must not write to it after Send (the in-process network hands the one
// slice to every receiver); a transport must not reuse a buffer it delivered
// (the TCP reader allocates one per frame); a receiver may keep it, and
// views into it, indefinitely and must not write to them. Decoders return
// views; whoever retains a small piece of a large payload clones that piece.
type Message struct {
	From    Addr
	To      Addr
	Type    uint16
	Payload []byte
}

// wireOverheadBytes approximates per-message framing/header cost charged by
// the bandwidth model (Ethernet + IP + TCP headers and our own frame).
const wireOverheadBytes = 80

// Size returns the number of bytes the message occupies on the wire,
// including framing overhead. The bandwidth model charges this amount.
func (m Message) Size() int {
	return len(m.Payload) + len(m.From) + len(m.To) + wireOverheadBytes
}

// Errors shared by transport implementations.
var (
	ErrClosed      = errors.New("transport closed")
	ErrUnknownAddr = errors.New("unknown address")
	ErrDuplicate   = errors.New("address already joined")
)

// Conn is one endpoint's handle on a network.
type Conn interface {
	// Addr returns the endpoint's own address.
	Addr() Addr
	// Send transmits a message; payload is immutable from here on (see
	// Message). From is filled in by the transport. Send never blocks on
	// the receiver: delivery is asynchronous, and messages to unknown or
	// disconnected destinations are silently dropped (the
	// asynchronous-network assumption BFT protocols are designed for).
	Send(to Addr, msgType uint16, payload []byte)
	// Inbox returns the channel of received messages (their payloads are
	// immutable, see Message). It is closed when the connection closes.
	Inbox() <-chan Message
	// Close detaches the endpoint from the network.
	Close() error
}

// LatencyModel yields the one-way propagation delay from one endpoint to
// another. Implementations must be safe for concurrent use.
type LatencyModel interface {
	Delay(from, to Addr) time.Duration
}

// zeroLatency is the default model: instantaneous delivery.
type zeroLatency struct{}

func (zeroLatency) Delay(_, _ Addr) time.Duration { return 0 }

// ZeroLatency returns a model with no propagation delay (an idealized LAN).
func ZeroLatency() LatencyModel { return zeroLatency{} }

// FixedLatency returns a model with a constant one-way delay between any two
// distinct endpoints (loopback stays instantaneous).
func FixedLatency(d time.Duration) LatencyModel { return fixedLatency(d) }

type fixedLatency time.Duration

func (f fixedLatency) Delay(from, to Addr) time.Duration {
	if from == to {
		return 0
	}
	return time.Duration(f)
}
