package main

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fabric"
)

const (
	benchChannel = "bench"
	benchClient  = "load"
)

// envGen makes the workload's inputs from the seed: every envelope's
// payload is cut from one seeded random pool and stamped with its
// sequence number, so envelopes are unique (the frontend's in-flight
// window is keyed by digest) and a delivered envelope names the request
// it answers. The envelope timestamp carries the instant the request was
// DUE, which is the latency anchor on the receiving side.
type envGen struct {
	pool       []byte
	size       int
	prefix     []byte // encoded channel and client ids
	payloadOff int    // offset of the payload bytes in a marshalled envelope
}

const envPoolBytes = 1 << 20

func newEnvGen(seed int64, size int) *envGen {
	if size < 8 {
		size = 8 // room for the sequence number
	}
	g := &envGen{pool: make([]byte, envPoolBytes+size), size: size}
	rand.New(rand.NewSource(seed)).Read(g.pool)
	sample := g.envelope(0, 0).Marshal()
	g.payloadOff = len(sample) - 1 - size // one byte encodes the empty signature
	g.prefix = append([]byte(nil), sample[:g.payloadOff-8-uvarintLen(size)]...)
	return g
}

func uvarintLen(v int) int {
	var buf [binary.MaxVarintLen64]byte
	return binary.PutUvarint(buf[:], uint64(v))
}

func (g *envGen) envelope(seq uint64, dueUnixNano int64) *fabric.Envelope {
	payload := make([]byte, g.size)
	off := int(seq * 8191 % envPoolBytes)
	copy(payload, g.pool[off:off+g.size])
	binary.BigEndian.PutUint64(payload, seq)
	return &fabric.Envelope{
		ChannelID:         benchChannel,
		ClientID:          benchClient,
		TimestampUnixNano: dueUnixNano,
		Payload:           payload,
	}
}

// parse reads the sequence number and due time back out of a delivered
// envelope without decoding it; ok is false for an envelope this
// generator did not make.
func (g *envGen) parse(raw []byte) (seq uint64, dueUnixNano int64, ok bool) {
	if len(raw) != g.payloadOff+g.size+1 || !bytes.HasPrefix(raw, g.prefix) {
		return 0, 0, false
	}
	due := binary.BigEndian.Uint64(raw[len(g.prefix):])
	return binary.BigEndian.Uint64(raw[g.payloadOff:]), int64(due), true
}

// Per-request state bits kept by the recorder.
const (
	stateAcked     uint8 = 1 << 7
	stateCountMask uint8 = stateAcked - 1
)

// recorder is the measuring client: senders report every broadcast to it
// and the Deliver side hands it every block. It times each request from
// the instant it was due to its appearance in a delivered block, keeps the
// latencies of the requests due inside the measured window, and checks the
// delivered stream.
type recorder struct {
	gen       *envGen
	start     time.Time
	startUnix int64

	// Measured window, in nanoseconds since start. Unset is MaxInt64 so
	// nothing counts as inside.
	winOpen, winClose atomic.Int64

	// tokens bounds the outstanding requests of a closed loop (nil for an
	// open loop): a send takes one, a delivery returns one.
	tokens     chan struct{}
	firstBlock chan struct{} // closes on the first delivered block

	spans *spanLog // nil unless tracing

	mu        sync.Mutex
	state     []uint8
	attempted uint64
	refused   uint64 // broadcasts not acknowledged SUCCESS
	delivered uint64
	blocks    uint64
	foreign   uint64
	latMs     []float64 // due -> delivered, requests due inside the window
	// lastWindowed is when the latest of those requests was delivered.
	lastWindowed time.Duration
	lateMs       []float64 // due -> actually sent, same requests
	rpcUs        []float64 // broadcast call -> return, same requests (tracing only)
	chain        chainChecker
	viol         violations
}

func newRecorder(gen *envGen, outstanding int) *recorder {
	r := &recorder{
		gen:        gen,
		start:      time.Now(),
		firstBlock: make(chan struct{}),
	}
	r.startUnix = r.start.UnixNano()
	r.winOpen.Store(math.MaxInt64)
	r.winClose.Store(math.MaxInt64)
	if outstanding > 0 {
		r.tokens = make(chan struct{}, outstanding)
	}
	r.chain.v = &r.viol
	return r
}

// now is the recorder's clock: monotonic nanoseconds since start.
func (r *recorder) now() time.Duration { return time.Since(r.start) }

func (r *recorder) inWindow(t time.Duration) bool {
	return int64(t) >= r.winOpen.Load() && int64(t) < r.winClose.Load()
}

// slot returns the state byte of a request, growing the table as needed.
// Callers hold mu.
func (r *recorder) slot(seq uint64) *uint8 {
	if seq >= uint64(len(r.state)) {
		grown := make([]uint8, (seq+1)*2)
		copy(grown, r.state)
		r.state = grown
	}
	return &r.state[seq]
}

// send issues one request through submit and records its outcome: due is
// when the schedule wanted it sent, which is what its latency is measured
// from however late the sender actually ran.
func (r *recorder) send(seq uint64, due time.Duration, submit func(*fabric.Envelope) bool) {
	env := r.gen.envelope(seq, r.startUnix+int64(due))
	called := r.now()
	ok := submit(env)
	returned := r.now()

	r.mu.Lock()
	r.attempted++
	if ok {
		*r.slot(seq) |= stateAcked
	} else {
		r.refused++
	}
	if r.inWindow(due) {
		r.lateMs = append(r.lateMs, float64(called-due)/1e6)
		if r.spans != nil {
			r.rpcUs = append(r.rpcUs, float64(returned-called)/1e3)
		}
	}
	r.mu.Unlock()
	if r.spans != nil {
		r.spans.sent(seq, due, called, returned)
	}
}

// onBlock consumes one delivered block. It runs on the delivering
// goroutine (the frontend's receive loop or a Deliver stream reader).
func (r *recorder) onBlock(b *fabric.Block) {
	now := r.now()
	own := 0

	r.mu.Lock()
	r.chain.add(b)
	first := r.blocks == 0
	r.blocks++
	for _, raw := range b.Envelopes {
		seq, dueUnix, ok := r.gen.parse(raw)
		if !ok {
			r.foreign++
			continue
		}
		own++
		s := r.slot(seq)
		if *s&stateCountMask < stateCountMask {
			*s++
		}
		due := time.Duration(dueUnix - r.startUnix)
		if r.inWindow(due) {
			r.latMs = append(r.latMs, float64(now-due)/1e6)
			r.lastWindowed = now
		}
		if r.spans != nil {
			r.spans.delivered(seq, now)
		}
	}
	r.delivered += uint64(own)
	r.mu.Unlock()

	if first {
		close(r.firstBlock)
	}
	for i := 0; i < own && r.tokens != nil; i++ {
		select {
		case <-r.tokens:
		default:
		}
	}
}

// outstanding is how many acknowledged requests have not been delivered.
func (r *recorder) outstanding() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return int(r.attempted-r.refused) - int(r.delivered)
}

// drain waits until every acknowledged request was delivered, or timeout.
func (r *recorder) drain(timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for r.outstanding() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
}

// exactlyOnce counts acknowledged requests that were never delivered and
// requests delivered more than once.
func (r *recorder) exactlyOnce() (lost, duplicated uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.state {
		n := s & stateCountMask
		if s&stateAcked != 0 && n == 0 {
			lost++
		}
		if n > 1 {
			duplicated++
		}
	}
	return lost, duplicated
}

// samples returns a copy of one of the recorder's series, in the order it
// was recorded.
func (r *recorder) samples(series *[]float64) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), *series...)
}

// openLoop is a fixed-rate schedule: request first+n is due n/rate
// seconds after origin, whatever happened to the requests before it. A
// sender that falls behind (a stalled call, a late wake-up) does not skip
// or re-time anything — it sends each overdue request at once, and every
// request keeps its original due time, so the stall is charged to the
// requests that waited through it (no coordinated omission).
type openLoop struct {
	rate    int           // requests per second
	senders int           // goroutines sharing the schedule round-robin
	first   uint64        // sequence number of the request due at origin
	origin  time.Duration // on the clock now reads
	now     func() time.Duration
	sleep   func(time.Duration)
}

func (o openLoop) due(seq uint64) time.Duration {
	return o.origin + time.Duration((seq-o.first)*uint64(time.Second)/uint64(o.rate))
}

// run sends, in schedule order, every request whose due time is before
// end. It returns, once all senders have, the sequence number after the
// last request sent.
func (o openLoop) run(end time.Duration, send func(seq uint64, due time.Duration)) uint64 {
	stopped := make([]uint64, o.senders) // first request each sender left unsent
	var wg sync.WaitGroup
	for i := 0; i < o.senders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			seq := o.first + uint64(i)
			for ; o.due(seq) < end; seq += uint64(o.senders) {
				if wait := o.due(seq) - o.now(); wait > 0 {
					o.sleep(wait)
				}
				send(seq, o.due(seq))
			}
			stopped[i] = seq
		}(i)
	}
	wg.Wait()
	next := stopped[0]
	for _, seq := range stopped[1:] {
		if seq < next {
			next = seq
		}
	}
	return next
}

// closedLoop keeps a fixed number of requests outstanding: the recorder's
// token channel admits a send only when a slot is free, and each delivery
// frees one. A request is due the moment it is sent. It sends from seq
// first until done closes and returns the sequence number after the last
// request sent.
func closedLoop(r *recorder, first uint64, done <-chan struct{}, submit func(*fabric.Envelope) bool) uint64 {
	for seq := first; ; seq++ {
		select {
		case <-done:
			return seq
		case r.tokens <- struct{}{}:
		}
		r.send(seq, r.now(), submit)
	}
}
