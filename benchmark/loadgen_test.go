package main

import (
	"math"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/fabric"
)

// fakeClock is a virtual clock for the schedule: sleeping advances it, and
// so does whatever the test says a send costs.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration    { return c.t }
func (c *fakeClock) sleep(d time.Duration) { c.t += d }

// A sender that stalls must not hide the stall: the requests that were due
// while it was stuck are still sent, each with its own due time, so their
// measured wait includes the stall (no coordinated omission).
func TestOpenLoopChargesStallToDueRequests(t *testing.T) {
	clock := &fakeClock{}
	loop := openLoop{rate: 1000, senders: 1, first: 10, origin: time.Second, now: clock.now, sleep: clock.sleep}
	const stallAt, stall = 20, 50 * time.Millisecond

	type sent struct{ due, at time.Duration }
	got := make(map[uint64]sent)
	next := loop.run(loop.origin+200*time.Millisecond, func(seq uint64, due time.Duration) {
		got[seq] = sent{due: due, at: clock.now()}
		if seq == stallAt {
			clock.t += stall // the call hangs for 50 ms
		}
	})

	if next != 210 || len(got) != 200 {
		t.Fatalf("sent %d requests up to %d, want 200 up to 210: a stall must not drop requests", len(got), next)
	}
	for seq := uint64(10); seq < 210; seq++ {
		s, ok := got[seq]
		if !ok {
			t.Fatalf("request %d was never sent", seq)
		}
		if want := loop.origin + time.Duration(seq-10)*time.Millisecond; s.due != want {
			t.Fatalf("request %d due at %v, want %v: due times must not move", seq, s.due, want)
		}
		late := s.at - s.due
		var want time.Duration
		if seq > stallAt && seq <= stallAt+50 {
			// Due 1 ms apart while the sender was stuck: request 21 waited
			// 49 ms, request 22 48 ms, ... and all go out back to back.
			want = stall - time.Duration(seq-stallAt)*time.Millisecond
		}
		if late != want {
			t.Fatalf("request %d sent %v after it was due, want %v", seq, late, want)
		}
	}
}

func TestOpenLoopSplitsScheduleAcrossSenders(t *testing.T) {
	clock := &fakeClock{}
	loop := openLoop{rate: 100, senders: 1, first: 0, now: clock.now, sleep: clock.sleep}
	var order []uint64
	loop.run(50*time.Millisecond, func(seq uint64, _ time.Duration) { order = append(order, seq) })
	if len(order) != 5 {
		t.Fatalf("sent %v, want requests 0..4", order)
	}
	// Two senders take alternate requests; together they cover the same
	// schedule (real clock: the goroutines run concurrently).
	start := time.Now()
	two := openLoop{rate: 1000, senders: 2, first: 0,
		now: func() time.Duration { return time.Since(start) }, sleep: time.Sleep}
	seen := make(chan uint64, 64)
	next := two.run(20*time.Millisecond, func(seq uint64, _ time.Duration) { seen <- seq })
	close(seen)
	count := 0
	for range seen {
		count++
	}
	if next != 20 || count != 20 {
		t.Fatalf("two senders sent %d requests up to %d, want 20", count, next)
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	for _, size := range []int{8, 200, 1024} {
		gen := newEnvGen(3, size)
		raw := gen.envelope(12345, 987654321).Marshal()
		seq, due, ok := gen.parse(raw)
		if !ok || seq != 12345 || due != 987654321 {
			t.Fatalf("size %d: parse = %d, %d, %v", size, seq, due, ok)
		}
		env, err := fabric.UnmarshalEnvelope(raw)
		if err != nil || len(env.Payload) != size || env.ChannelID != benchChannel {
			t.Fatalf("size %d: envelope does not decode: %v", size, err)
		}
	}
	gen := newEnvGen(3, 200)
	other := (&fabric.Envelope{ChannelID: "elsewhere", ClientID: benchClient, Payload: make([]byte, 200)}).Marshal()
	if _, _, ok := gen.parse(other); ok {
		t.Fatal("an envelope of another channel was taken for a generated one")
	}
	if a, b := newEnvGen(7, 200).envelope(1, 0).Marshal(), newEnvGen(7, 200).envelope(1, 0).Marshal(); string(a) != string(b) {
		t.Fatal("the same seed must give the same envelope")
	}
	if a, b := newEnvGen(7, 200).envelope(1, 0).Marshal(), newEnvGen(8, 200).envelope(1, 0).Marshal(); string(a) == string(b) {
		t.Fatal("another seed must give another payload")
	}
}

// blockOf chains a block of the given requests onto prev.
func blockOf(gen *envGen, number uint64, prev cryptoutil.Digest, seqs ...uint64) *fabric.Block {
	envs := make([][]byte, len(seqs))
	for i, seq := range seqs {
		envs[i] = gen.envelope(seq, 0).Marshal()
	}
	return fabric.NewBlock(number, prev, envs)
}

func TestRecorderExactlyOnce(t *testing.T) {
	gen := newEnvGen(1, 64)
	rec := newRecorder(gen, 0)
	ack := func(*fabric.Envelope) bool { return true }
	for seq := uint64(0); seq < 4; seq++ {
		rec.send(seq, rec.now(), ack)
	}
	rec.send(4, rec.now(), func(*fabric.Envelope) bool { return false }) // refused

	b0 := blockOf(gen, 0, cryptoutil.Digest{}, 0, 1)
	b1 := blockOf(gen, 1, b0.Header.Hash(), 1, 2) // request 1 again; request 3 never
	rec.onBlock(b0)
	rec.onBlock(b1)

	lost, duplicated := rec.exactlyOnce()
	if lost != 1 || duplicated != 1 {
		t.Fatalf("lost %d duplicated %d, want 1 and 1", lost, duplicated)
	}
	if rec.attempted != 5 || rec.refused != 1 || rec.delivered != 4 {
		t.Fatalf("attempted %d refused %d delivered %d", rec.attempted, rec.refused, rec.delivered)
	}
	if n, _ := rec.viol.snapshot(); n != 0 {
		t.Fatalf("a linked two-block stream raised %d chain violations", n)
	}
}

func TestRecorderWindowAndClosedLoopTokens(t *testing.T) {
	gen := newEnvGen(1, 64)
	rec := newRecorder(gen, 2)
	rec.winOpen.Store(math.MinInt64) // the hand-built blocks carry due time 0
	rec.winClose.Store(int64(time.Hour))
	stop := make(chan struct{})
	done := make(chan uint64)
	go func() { done <- closedLoop(rec, 0, stop, func(*fabric.Envelope) bool { return true }) }()

	// Two requests fill the window; the third waits for a delivery.
	deadline := time.Now().Add(5 * time.Second)
	for rec.outstanding() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if got := rec.outstanding(); got != 2 {
		t.Fatalf("%d requests outstanding with a window of 2", got)
	}
	b0 := blockOf(gen, 0, cryptoutil.Digest{}, 0, 1)
	rec.onBlock(b0)
	for rec.outstanding() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	rec.onBlock(blockOf(gen, 1, b0.Header.Hash(), 2, 3))
	close(stop)
	if next := <-done; next < 4 {
		t.Fatalf("closed loop stopped at request %d, want at least 4 sent", next)
	}
	if got := len(rec.samples(&rec.latMs)); got != 4 {
		t.Fatalf("%d latency samples for 4 deliveries inside the window", got)
	}
}
