package transport

import (
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

// slack scales the tolerance of a timing assertion. The bounds in these
// tests hold in an otherwise idle process, which is how CI's dedicated
// step runs them (BENCH_FLOOR_ENFORCE=1); inside a `go test ./...` sweep
// other packages' tests share the
// processors, so the bounds are three times looser there — still well
// below what a timer-per-message network measures (hop 1.16 ms, flood
// 20.7 MB/s).
func slack(d time.Duration) time.Duration {
	if os.Getenv("BENCH_FLOOR_ENFORCE") == "1" {
		return d
	}
	return 3 * d
}

func mustJoin(t *testing.T, n *InProcNetwork, addr Addr) Conn {
	t.Helper()
	c, err := n.Join(addr)
	if err != nil {
		t.Fatalf("join %s: %v", addr, err)
	}
	return c
}

func expectSilence(t *testing.T, c Conn, d time.Duration, what string) {
	t.Helper()
	select {
	case m, ok := <-c.Inbox():
		if ok {
			t.Fatalf("%s: got %+v", what, m)
		}
	case <-time.After(d):
	}
}

// settleGoroutines waits for the goroutine count to fall to at most want.
func settleGoroutines(want int) int {
	deadline := time.Now().Add(2 * time.Second)
	n := runtime.NumGoroutine()
	for n > want && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// A "100 µs" hop must cost about 100 µs plus one OS wake-up, with and
// without the bandwidth model, in a process that does nothing else.
func TestInProcHopLatency(t *testing.T) {
	for name, rate := range map[string]int64{"latency-only": 0, "gigabit-egress": GigabitEthernet} {
		t.Run(name, func(t *testing.T) {
			net := NewInProcNetwork(InProcConfig{Latency: FixedLatency(100 * time.Microsecond), EgressBytesPerSec: rate})
			defer net.Close()
			ends := [2]Conn{mustJoin(t, net, "a"), mustJoin(t, net, "b")}

			const hops = 2000
			took := make([]time.Duration, hops)
			for i := range took {
				from, to := ends[i%2], ends[(i+1)%2]
				start := time.Now()
				from.Send(to.Addr(), 1, nil)
				recvOne(t, to, time.Second)
				took[i] = time.Since(start)
			}
			sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
			p50, p90 := took[hops/2], took[hops*9/10]
			t.Logf("hop p50 %v p90 %v", p50, p90)
			if took[0] < 100*time.Microsecond {
				t.Errorf("fastest hop %v is below the 100µs delay", took[0])
			}
			if p50 >= slack(300*time.Microsecond) || p90 >= slack(500*time.Microsecond) {
				t.Errorf("hop p50 %v p90 %v, want < %v and < %v", p50, p90,
					slack(300*time.Microsecond), slack(500*time.Microsecond))
			}
		})
	}
}

// A flooded Gigabit NIC must carry a Gigabit: 20,000 × 4 kB queued at once
// arrive at 125 MB/s, neither faster nor (sleep overshoot) slower.
func TestInProcEgressRate(t *testing.T) {
	net := NewInProcNetwork(InProcConfig{EgressBytesPerSec: GigabitEthernet})
	defer net.Close()
	a, b := mustJoin(t, net, "a"), mustJoin(t, net, "b")

	const msgs = 20000
	payload := make([]byte, 4096)
	size := Message{From: "a", To: "b", Payload: payload}.Size()
	start := time.Now()
	for i := 0; i < msgs; i++ {
		a.Send("b", 1, payload)
	}
	for i := 0; i < msgs; i++ {
		recvOne(t, b, 5*time.Second)
	}
	elapsed := time.Since(start)
	ideal := time.Duration(msgs*size) * time.Second / time.Duration(GigabitEthernet)
	t.Logf("%.1f MB/s (%v for %d bytes)", float64(msgs*size)/1e6/elapsed.Seconds(), elapsed, msgs*size)
	if elapsed < ideal {
		t.Errorf("flood took %v, faster than the link allows (%v)", elapsed, ideal)
	}
	if limit := ideal + slack(ideal/20); elapsed > limit {
		t.Errorf("flood took %v, want <= %v (125 MB/s - 5%%, looser when contended)", elapsed, limit)
	}
}

// The scheduler's heap hands deliveries out by release time, and in push
// order among equal release times (that tie-break is what keeps a link whose
// releases were clamped together FIFO).
func TestSchedulerHeapOrder(t *testing.T) {
	s := scheduler{alarm: newTimerAlarm()} // not started: push and pop only
	rng := rand.New(rand.NewSource(1))
	const n = 2000
	for i := 0; i < n; i++ {
		release := time.Duration(rng.Intn(50)) // many ties
		s.push(delivery{release: release, msg: Message{Type: uint16(i)}})
	}
	prev := s.pop()
	for i := 1; i < n; i++ {
		d := s.pop()
		if d.release < prev.release || d.release == prev.release && d.msg.Type < prev.msg.Type {
			t.Fatalf("pop %d: release %v push #%d came after release %v push #%d", i, d.release, d.msg.Type, prev.release, prev.msg.Type)
		}
		prev = d
	}
	if len(s.heap) != 0 {
		t.Fatalf("%d deliveries left", len(s.heap))
	}
}

// The scheduler keeps time with either alarm — the platform's and the
// portable runtime timer every platform can fall back to: a push that
// becomes the earliest release re-arms a wait already under way, and stop
// ends a wait with deliveries pending.
func TestSchedulerAlarms(t *testing.T) {
	for name, mk := range map[string]func() alarm{"platform": newAlarm, "runtime-timer": newTimerAlarm} {
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			var s scheduler
			s.start(mk())
			mb := newMailbox()
			defer mb.close()

			start := s.now()
			s.push(delivery{release: start + time.Minute, msg: Message{Type: 3}, dst: mb})
			s.push(delivery{release: start + 30*time.Millisecond, msg: Message{Type: 2}, dst: mb})
			time.Sleep(5 * time.Millisecond) // the scheduler is asleep until +30 ms
			s.push(delivery{release: start + 10*time.Millisecond, msg: Message{Type: 1}, dst: mb})
			for i, due := range []time.Duration{10 * time.Millisecond, 30 * time.Millisecond} {
				select {
				case m := <-mb.out:
					at := s.now() - start
					if m.Type != uint16(i+1) || at < due || at > due+slack(3*time.Millisecond) {
						t.Fatalf("delivery %d: got type %d after %v, want type %d at %v", i, m.Type, at, i+1, due)
					}
				case <-time.After(time.Second):
					t.Fatalf("delivery %d never came", i)
				}
			}
			s.stop()
			if after := settleGoroutines(before + 1); after > before+1 { // +1: the mailbox
				t.Fatalf("%d goroutines before, %d after stop", before, after)
			}
		})
	}
}

// lateAlarm counts how often it is set and fires late by a fixed amount, as
// the timer of a loaded process does.
type lateAlarm struct {
	alarm
	late time.Duration
	sets atomic.Int64
}

func (a *lateAlarm) set(d time.Duration) { a.sets.Add(1); a.alarm.set(d + a.late) }

// Deliveries due closer together than the alarm's lateness share wake-ups.
// An alarm armed for each next release comes back once per lateness of the
// stream; one armed for the next release plus the measured lateness comes
// back once per two, so a dense stream must cost fewer than one set per 1.5
// lateness of it. No delivery may leave early or out of order.
func TestSchedulerCoalescesDenseStream(t *testing.T) {
	const (
		n    = 4000
		gap  = 10 * time.Microsecond
		late = 200 * time.Microsecond
	)
	a := &lateAlarm{alarm: newAlarm(), late: late}
	var s scheduler
	s.start(a)
	defer s.stop()
	mb := newMailbox()
	defer mb.close()

	first := s.now() + time.Millisecond
	for i := 0; i < n; i++ {
		s.push(delivery{release: first + time.Duration(i)*gap, msg: Message{Type: uint16(i)}, dst: mb})
	}
	for i := 0; i < n; i++ {
		select {
		case m := <-mb.out:
			if m.Type != uint16(i) {
				t.Fatalf("delivery %d arrived in place of %d", m.Type, i)
			}
			if at, due := s.now(), first+time.Duration(i)*gap; at < due {
				t.Fatalf("delivery %d arrived %v before its release", i, due-at)
			}
		case <-time.After(time.Second):
			t.Fatalf("delivery %d never came", i)
		}
	}
	sets, limit := a.sets.Load(), int64(n*gap/(late*3/2))
	t.Logf("%d alarm sets for %d deliveries (%.3f per delivery)", sets, n, float64(sets)/n)
	if sets > limit {
		t.Fatalf("%d alarm sets for %d deliveries due %v apart on a timer %v late, want <= %d", sets, n, gap, late, limit)
	}
}

// decreasingLatency hands every send a smaller delay than the one before.
type decreasingLatency struct{ next atomic.Int64 }

func (d *decreasingLatency) Delay(_, _ Addr) time.Duration {
	return time.Duration(d.next.Add(-int64(time.Millisecond)))
}

func TestInProcFIFOWhenLaterSendDrawsSmallerDelay(t *testing.T) {
	model := &decreasingLatency{}
	model.next.Store(int64(41 * time.Millisecond))
	net := NewInProcNetwork(InProcConfig{Latency: model})
	defer net.Close()
	a, b := mustJoin(t, net, "a"), mustJoin(t, net, "b")

	const n = 30 // delays 40 ms, 39 ms, ... 11 ms
	start := time.Now()
	for i := 0; i < n; i++ {
		a.Send("b", uint16(i), nil)
	}
	for i := 0; i < n; i++ {
		if m := recvOne(t, b, time.Second); m.Type != uint16(i) {
			t.Fatalf("message %d overtaken by %d", i, m.Type)
		}
		if i == 0 && time.Since(start) < 40*time.Millisecond {
			t.Fatalf("first message after %v, before its 40ms delay", time.Since(start))
		}
	}
}

func TestInProcSetLatencyAffectsOnlyLaterSends(t *testing.T) {
	const slow = 80 * time.Millisecond
	net := NewInProcNetwork(InProcConfig{Latency: FixedLatency(slow)})
	defer net.Close()
	a, b, c := mustJoin(t, net, "a"), mustJoin(t, net, "b"), mustJoin(t, net, "c")

	start := time.Now()
	a.Send("b", 1, nil)
	net.SetLatency(FixedLatency(time.Millisecond))
	a.Send("c", 2, nil)
	recvOne(t, c, time.Second)
	if d := time.Since(start); d >= slow/2 {
		t.Fatalf("send after SetLatency took %v, still the old delay", d)
	}
	recvOne(t, b, time.Second)
	if d := time.Since(start); d < slow {
		t.Fatalf("in-flight message arrived after %v: it lost its %v delay", d, slow)
	}
}

func TestInProcDisconnectDropsInFlight(t *testing.T) {
	net := NewInProcNetwork(InProcConfig{Latency: FixedLatency(30 * time.Millisecond)})
	defer net.Close()
	a, b := mustJoin(t, net, "a"), mustJoin(t, net, "b")

	a.Send("b", 1, nil)
	net.Disconnect("b")
	if _, ok := <-b.Inbox(); ok {
		t.Fatal("disconnected endpoint received the in-flight message")
	}
	// The crash also loses the message for a successor at the same address.
	b2 := mustJoin(t, net, "b")
	expectSilence(t, b2, 80*time.Millisecond, "message sent to the crashed incarnation")
	a.Send("b", 2, nil)
	if m := recvOne(t, b2, time.Second); m.Type != 2 {
		t.Fatalf("rejoined endpoint got %+v", m)
	}
}

// Filter and loss model are consulted once, in Send, whether or not the
// bandwidth model is on; what they drop still used the sender's NIC.
func TestInProcFilterEvaluatedOnceAtSend(t *testing.T) {
	for name, rate := range map[string]int64{"latency-only": 0, "with-egress": 1_000_000} {
		t.Run(name, func(t *testing.T) {
			net := NewInProcNetwork(InProcConfig{Latency: FixedLatency(20 * time.Millisecond), EgressBytesPerSec: rate})
			defer net.Close()
			a, b := mustJoin(t, net, "a"), mustJoin(t, net, "b")
			var calls atomic.Int32
			pass := func(ok bool) func(Message) bool {
				return func(Message) bool { calls.Add(1); return ok }
			}

			net.SetFilter(pass(false))
			a.Send("b", 1, nil)
			net.Heal() // too late for message 1
			a.Send("b", 2, nil)
			net.SetFilter(pass(false)) // too late to stop message 2
			if m := recvOne(t, b, time.Second); m.Type != 2 {
				t.Fatalf("got %+v, want only message 2", m)
			}
			expectSilence(t, b, 40*time.Millisecond, "filtered message")
			if calls.Load() != 1 {
				t.Fatalf("filter ran %d times for one filtered send", calls.Load())
			}
		})
	}

	t.Run("dropped-message-occupies-nic", func(t *testing.T) {
		net := NewInProcNetwork(InProcConfig{EgressBytesPerSec: 1_000_000})
		defer net.Close()
		a, b := mustJoin(t, net, "a"), mustJoin(t, net, "b")
		net.SetDrop(func(m Message) bool { return m.Type == 1 })
		start := time.Now()
		a.Send("b", 1, make([]byte, 50_000)) // 50 ms of NIC time, then lost
		a.Send("b", 2, nil)
		if m := recvOne(t, b, time.Second); m.Type != 2 {
			t.Fatalf("got %+v, want message 2", m)
		}
		if d := time.Since(start); d < 50*time.Millisecond {
			t.Fatalf("message behind a dropped 50kB one arrived after %v", d)
		}
	})
}

func TestInProcZeroDelayDeliversInline(t *testing.T) {
	net := NewInProcNetwork(InProcConfig{})
	defer net.Close()
	a, b := mustJoin(t, net, "a"), mustJoin(t, net, "b")
	for i := 0; i < 100; i++ {
		a.Send("b", 1, nil)
	}
	// Inline means Send itself filled the mailbox: nothing was scheduled.
	net.sched.mu.Lock()
	scheduled := net.sched.seq
	net.sched.mu.Unlock()
	if scheduled != 0 {
		t.Fatalf("%d of 100 zero-delay sends went through the scheduler", scheduled)
	}
	for i := 0; i < 100; i++ {
		recvOne(t, b, time.Second)
	}
}

// Closing a retired endpoint again must not unregister the successor that
// joined under its address.
func TestInProcCloseKeepsSuccessor(t *testing.T) {
	net := NewInProcNetwork(InProcConfig{})
	defer net.Close()
	first := mustJoin(t, net, "x")
	first.Close()
	successor := mustJoin(t, net, "x")
	first.Close()
	mustJoin(t, net, "y").Send("x", 1, nil)
	recvOne(t, successor, 300*time.Millisecond)
}

func TestInProcCloseWithDeliveriesPending(t *testing.T) {
	before := runtime.NumGoroutine()
	net := NewInProcNetwork(InProcConfig{Latency: FixedLatency(time.Minute), EgressBytesPerSec: GigabitEthernet})
	a, _ := mustJoin(t, net, "a"), mustJoin(t, net, "b")
	for i := 0; i < 5000; i++ {
		a.Send("b", 1, nil)
	}
	start := time.Now()
	if err := net.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if d := time.Since(start); d > slack(50*time.Millisecond) {
		t.Fatalf("Close with 5000 deliveries pending took %v", d)
	}
	if after := settleGoroutines(before); after > before {
		t.Fatalf("%d goroutines before, %d after Close", before, after)
	}
}

func TestInProcGoroutinesPerEndpointNotPerLink(t *testing.T) {
	before := runtime.NumGoroutine()
	net := NewInProcNetwork(InProcConfig{Latency: FixedLatency(time.Millisecond), EgressBytesPerSec: GigabitEthernet})
	defer net.Close()
	const endpoints = 16
	conns := make([]Conn, endpoints)
	for i := range conns {
		conns[i] = mustJoin(t, net, Addr(string(rune('a'+i))))
	}
	for _, from := range conns {
		for _, to := range conns {
			if from != to {
				from.Send(to.Addr(), 1, nil)
			}
		}
	}
	for _, c := range conns {
		for i := 0; i < endpoints-1; i++ {
			recvOne(t, c, time.Second)
		}
	}
	// One mailbox per endpoint plus the scheduler; 240 links add nothing.
	if got := runtime.NumGoroutine() - before; got > endpoints+1 {
		t.Fatalf("%d endpoints all-to-all run %d goroutines, want <= %d", endpoints, got, endpoints+1)
	}
}
