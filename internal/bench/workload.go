package bench

import (
	"math/rand"
	"strconv"
	"time"

	"repro/internal/fabric"
	"repro/internal/wire"
)

// Envelope sizes of the paper's evaluation (Section 6.2): a SHA-256 hash
// (40 bytes), three endorsement signatures (200 bytes: the paper's three
// ECDSA ones; three Ed25519 ones are 192), and 1 KB /
// 4 KB transaction messages ("the values related with [1 and 4 kbytes] are
// more representative of the size of a transaction").
var PaperEnvelopeSizes = []int{40, 200, 1024, 4096}

// EnvelopeGen builds benchmark envelopes of a fixed payload size for one
// submitting client. Envelope payloads carry a generator-unique marker and
// sequence number so the latency harness can recognize its own envelopes
// in released blocks.
type EnvelopeGen struct {
	channel string
	client  string
	size    int
	rng     *rand.Rand
	next    uint64
}

// NewEnvelopeGen creates a generator for the given channel/client/payload
// size.
func NewEnvelopeGen(channel, client string, size int, seed int64) *EnvelopeGen {
	if size < 16 {
		size = 16 // room for the sequence marker
	}
	return &EnvelopeGen{
		channel: channel,
		client:  client,
		size:    size,
		rng:     rand.New(rand.NewSource(seed)),
	}
}

// Sent returns how many envelopes the generator has produced.
func (g *EnvelopeGen) Sent() uint64 { return g.next }

// Next returns the marshalled envelope and its sequence number.
func (g *EnvelopeGen) Next() ([]byte, uint64) {
	seq := g.next
	g.next++
	payload := make([]byte, g.size)
	g.rng.Read(payload)
	w := wire.NewWriter(16)
	w.PutUint64(seq)
	copy(payload, w.Bytes())
	// A real submission timestamp (not the sequence number: that lives in
	// the payload marker) anchors the observability layer's end-to-end
	// stage histogram; EnvelopeSeq reads the payload, so nothing else
	// depends on this field.
	env := &fabric.Envelope{
		ChannelID:         g.channel,
		ClientID:          g.client,
		TimestampUnixNano: time.Now().UnixNano(),
		Payload:           payload,
	}
	return env.Marshal(), seq
}

// EnvelopeSeq extracts the generator sequence number from a benchmark
// envelope produced by EnvelopeGen.
func EnvelopeSeq(raw []byte) (client string, seq uint64, ok bool) {
	env, err := fabric.UnmarshalEnvelope(raw)
	if err != nil || len(env.Payload) < 8 {
		return "", 0, false
	}
	r := wire.NewReader(env.Payload[:8])
	return env.ClientID, r.Uint64(), r.Err() == nil
}

// clientName labels load-generator clients.
func clientName(prefix string, i int) string {
	return prefix + "-" + strconv.Itoa(i)
}
