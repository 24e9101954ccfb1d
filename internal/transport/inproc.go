package transport

import (
	"fmt"
	"sync"
	"time"
)

// InProcConfig parameterizes an in-process network.
type InProcConfig struct {
	// Latency supplies the one-way propagation delay per link. Nil means
	// instantaneous delivery.
	Latency LatencyModel
	// EgressBytesPerSec, when > 0, models each sender's NIC: a message
	// occupies it for size/rate seconds after everything its sender sent
	// before, then propagates. Send charges the time arithmetically (no
	// goroutine, no sleep), so a flooded link carries exactly this rate.
	// 125_000_000 models the paper's Gigabit Ethernet.
	EgressBytesPerSec int64
}

// GigabitEthernet is the egress rate of the paper's LAN testbed in bytes/s.
const GigabitEthernet int64 = 125_000_000

// InProcNetwork is an in-memory network hub. Endpoints Join with a unique
// address. Send computes the instant a message is due at its receiver — the
// sender's NIC free time (bandwidth model) plus the propagation delay
// (latency model), never before the previous message of the same link — and
// the network's one delivery scheduler puts it into the receiver's unbounded
// mailbox at that instant; a message due at once is put there inline. Sends
// never block, which matches the asynchronous-network model of BFT-SMaRt.
// A network runs one goroutine per endpoint (its mailbox) plus the scheduler.
type InProcNetwork struct {
	cfg InProcConfig

	mu      sync.RWMutex
	peers   map[Addr]*inprocConn
	filter  func(Message) bool // nil => deliver; false => drop
	drop    func(Message) bool // nil => deliver; true => drop (loss model)
	latency LatencyModel
	closed  bool

	sched scheduler
}

// NewInProcNetwork creates a hub with the given configuration.
func NewInProcNetwork(cfg InProcConfig) *InProcNetwork {
	if cfg.Latency == nil {
		cfg.Latency = ZeroLatency()
	}
	n := &InProcNetwork{
		cfg:     cfg,
		latency: cfg.Latency,
		peers:   make(map[Addr]*inprocConn),
	}
	n.sched.start(newAlarm())
	return n
}

// Join attaches a new endpoint to the network.
func (n *InProcNetwork) Join(addr Addr) (Conn, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if _, ok := n.peers[addr]; ok {
		return nil, fmt.Errorf("join %q: %w", addr, ErrDuplicate)
	}
	c := &inprocConn{net: n, addr: addr, mailbox: newMailbox(), last: make(map[Addr]time.Duration)}
	n.peers[addr] = c
	return c, nil
}

// SetFilter installs a delivery predicate: messages for which filter returns
// false are dropped. Passing nil removes the filter. Used by the fault
// injection tests (drops, partitions, Byzantine link behaviour). Filter and
// drop predicate are evaluated exactly once per message, inside Send: a
// message that passed is delivered even if the filter changes while it is
// in flight, and a dropped one has still occupied its sender's NIC.
func (n *InProcNetwork) SetFilter(filter func(Message) bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.filter = filter
}

// SetDrop installs a loss predicate evaluated independently of the filter:
// messages for which drop returns true are silently discarded. Keeping it
// separate from SetFilter lets a probabilistic loss model coexist with a
// partition — Heal clears the partition filter without clearing the loss.
// Passing nil removes the predicate.
func (n *InProcNetwork) SetDrop(drop func(Message) bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.drop = drop
}

// SetLatency swaps the propagation-delay model at runtime. Nil restores
// instantaneous delivery. In-flight messages keep the delay they were
// assigned at send time; only subsequent sends observe the new model (and
// still never overtake an earlier message of their link).
func (n *InProcNetwork) SetLatency(model LatencyModel) {
	if model == nil {
		model = ZeroLatency()
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.latency = model
}

// Partition drops every message crossing between the two groups, in both
// directions. Endpoints not listed in either group communicate freely with
// everyone. Calling Heal removes the partition. Like every filter it applies
// at Send: messages already in flight when the partition starts arrive.
func (n *InProcNetwork) Partition(groupA, groupB []Addr) {
	inA := make(map[Addr]bool, len(groupA))
	for _, a := range groupA {
		inA[a] = true
	}
	inB := make(map[Addr]bool, len(groupB))
	for _, b := range groupB {
		inB[b] = true
	}
	n.SetFilter(func(m Message) bool {
		if inA[m.From] && inB[m.To] {
			return false
		}
		if inB[m.From] && inA[m.To] {
			return false
		}
		return true
	})
}

// Heal removes any partition or filter.
func (n *InProcNetwork) Heal() { n.SetFilter(nil) }

// Disconnect forcefully detaches an endpoint (models a crash: in-flight and
// future messages to it are dropped, also when the address is joined again
// before they are due).
func (n *InProcNetwork) Disconnect(addr Addr) {
	n.mu.Lock()
	c, ok := n.peers[addr]
	if ok {
		delete(n.peers, addr)
	}
	n.mu.Unlock()
	if ok {
		c.mailbox.close()
	}
}

// Close shuts down the hub and all endpoints. Deliveries still pending are
// dropped.
func (n *InProcNetwork) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	peers := n.peers
	n.peers = make(map[Addr]*inprocConn)
	n.mu.Unlock()

	for _, c := range peers {
		c.mailbox.close()
	}
	n.sched.stop()
	return nil
}

// inprocConn is one endpoint of an InProcNetwork.
type inprocConn struct {
	net     *InProcNetwork
	addr    Addr
	mailbox *mailbox

	mu   sync.Mutex
	free time.Duration          // when the NIC has sent everything charged so far
	last map[Addr]time.Duration // per destination: release time of the newest message
}

var _ Conn = (*inprocConn)(nil)

func (c *inprocConn) Addr() Addr { return c.addr }

// Send decides the message's fate and its release time on the spot: closed
// network, filter, loss model and destination are looked at now, the NIC is
// charged now, the delay is drawn now.
func (c *inprocConn) Send(to Addr, msgType uint16, payload []byte) {
	m := Message{From: c.addr, To: to, Type: msgType, Payload: payload}
	n := c.net
	n.mu.RLock()
	dst, filter, drop, latency, closed := n.peers[to], n.filter, n.drop, n.latency, n.closed
	n.mu.RUnlock()
	if closed {
		return
	}
	pass := (filter == nil || filter(m)) && (drop == nil || !drop(m)) && dst != nil
	var delay time.Duration
	if pass {
		delay = latency.Delay(c.addr, to)
	}

	now := n.sched.now()
	release := now
	c.mu.Lock()
	if rate := n.cfg.EgressBytesPerSec; rate > 0 {
		// Absolute arithmetic: an idle NIC starts now, a busy one when it
		// is free, and nobody sleeps, so no overshoot accumulates.
		c.free = max(c.free, now) + time.Duration(m.Size())*time.Second/time.Duration(rate)
		release = c.free
	}
	if !pass {
		c.mu.Unlock()
		return
	}
	// A link is FIFO (TCP semantics): a message that drew a smaller delay
	// than its predecessor is due together with it, not before it.
	release = max(release+delay, c.last[to])
	if release > now {
		c.last[to] = release
	}
	c.mu.Unlock()

	if release <= now {
		// The caller is the sender's goroutine and nothing of this link is
		// pending, so inline delivery keeps per-link order.
		dst.mailbox.put(m)
		return
	}
	n.sched.push(delivery{release: release, msg: m, dst: dst.mailbox})
}

func (c *inprocConn) Inbox() <-chan Message { return c.mailbox.out }

// Close detaches the endpoint. It is idempotent, and it unregisters the
// address only while the address is still this endpoint's: a successor that
// joined under the same address stays registered.
func (c *inprocConn) Close() error {
	c.net.mu.Lock()
	if c.net.peers[c.addr] == c {
		delete(c.net.peers, c.addr)
	}
	c.net.mu.Unlock()
	c.mailbox.close()
	return nil
}

// mailbox is an unbounded FIFO of messages with a channel-based reader side.
// Producers never block: the asynchronous network model requires that a slow
// or stalled receiver cannot back-pressure a broadcasting consensus replica
// into deadlock. A pump goroutine drains the queue into the out channel.
type mailbox struct {
	mu     sync.Mutex
	queue  []Message
	notify chan struct{} // capacity 1: wake-up signal for the pump
	done   chan struct{}
	out    chan Message
	closed bool
	wg     sync.WaitGroup
}

func newMailbox() *mailbox {
	mb := &mailbox{
		notify: make(chan struct{}, 1),
		done:   make(chan struct{}),
		out:    make(chan Message),
	}
	mb.wg.Add(1)
	go mb.pump()
	return mb
}

func (mb *mailbox) put(m Message) {
	mb.mu.Lock()
	if mb.closed {
		mb.mu.Unlock()
		return
	}
	mb.queue = append(mb.queue, m)
	mb.mu.Unlock()
	select {
	case mb.notify <- struct{}{}:
	default:
	}
}

func (mb *mailbox) pump() {
	defer mb.wg.Done()
	defer close(mb.out)
	// Two slices swap roles — put fills one while the other is handed over —
	// so neither is re-sliced at its head and both stop growing.
	var batch []Message
	for {
		mb.mu.Lock()
		batch, mb.queue = mb.queue, batch[:0]
		mb.mu.Unlock()
		if len(batch) == 0 {
			select {
			case <-mb.notify:
				continue
			case <-mb.done:
				return
			}
		}
		for i := range batch {
			m := batch[i]
			batch[i] = Message{} // a delivered payload is not pinned by the spare
			select {
			case mb.out <- m:
			case <-mb.done:
				return
			}
		}
	}
}

func (mb *mailbox) close() {
	mb.mu.Lock()
	if mb.closed {
		mb.mu.Unlock()
		return
	}
	mb.closed = true
	mb.mu.Unlock()
	close(mb.done)
	mb.wg.Wait()
}

// delivery is one message on its way: due in dst at release.
type delivery struct {
	release time.Duration // on the scheduler's clock
	seq     uint64        // push order; breaks release ties first-in first-out
	msg     Message
	dst     *mailbox
}

// alarm is how the scheduler waits. set arms it to fire in d, replacing what
// it was armed for, also while a wait is on; wait returns false once stopped.
// Once it has fired, wait may return at once until the next set.
type alarm interface {
	set(d time.Duration)
	wait() bool
	stop()
}

// timerAlarm is the portable alarm, a runtime timer.
type timerAlarm struct {
	timer *time.Timer
	done  chan struct{}
}

func newTimerAlarm() alarm { return timerAlarm{time.NewTimer(time.Hour), make(chan struct{})} }

func (a timerAlarm) set(d time.Duration) { a.timer.Reset(d) }
func (a timerAlarm) stop()               { close(a.done) }
func (a timerAlarm) wait() bool {
	select {
	case <-a.timer.C:
		return true
	case <-a.done:
		return false
	}
}

// scheduler releases deliveries in (release, seq) order from one goroutine,
// which sleeps on an alarm set for the earliest pending release plus band,
// a moving average of how late the alarm has fired (in a busy process that
// includes delivering what fell due meanwhile). A wake-up releases all that
// is due, so deliveries due within one timer jitter of each other share it
// instead of each arming a kernel timer, a system call; and the alarm is set
// only for an instant earlier than it is armed for, which still lets a push
// that becomes the earliest wake a wait. Nothing is released before its
// release time: the band only postpones the wake-up.
type scheduler struct {
	epoch time.Time // release times are monotonic durations since epoch

	mu    sync.Mutex
	heap  []delivery    // min-heap on (release, seq)
	seq   uint64        // next push's seq
	alarm alarm         // set under mu
	armed time.Duration // the instant the alarm is set for; 0 once it fired
	band  time.Duration // moving average of the alarm's lateness
	wg    sync.WaitGroup
}

func (s *scheduler) start(a alarm) {
	s.epoch = time.Now()
	s.alarm = a
	s.wg.Add(1)
	go s.run()
}

// arm sets the alarm for the instant at unless it is set for one no later.
func (s *scheduler) arm(at time.Duration) {
	if s.armed == 0 || at < s.armed {
		s.armed = at
		s.alarm.set(at - s.now())
	}
}

// stop ends the scheduler's goroutine; what is pending is dropped.
func (s *scheduler) stop() {
	s.alarm.stop()
	s.wg.Wait()
}

func (s *scheduler) now() time.Duration { return time.Since(s.epoch) }

func (s *scheduler) push(d delivery) {
	s.mu.Lock()
	d.seq = s.seq
	s.seq++
	i := len(s.heap)
	s.heap = append(s.heap, d)
	for i > 0 && s.less(i, (i-1)/2) {
		s.heap[i], s.heap[(i-1)/2] = s.heap[(i-1)/2], s.heap[i]
		i = (i - 1) / 2
	}
	if i == 0 {
		s.arm(d.release + s.band)
	}
	s.mu.Unlock()
}

func (s *scheduler) less(i, j int) bool {
	a, b := &s.heap[i], &s.heap[j]
	return a.release < b.release || a.release == b.release && a.seq < b.seq
}

// pop removes the earliest delivery. The heap must not be empty.
func (s *scheduler) pop() delivery {
	d := s.heap[0]
	n := len(s.heap) - 1
	s.heap[0] = s.heap[n]
	s.heap[n] = delivery{} // drop the payload reference
	s.heap = s.heap[:n]
	for i := 0; ; {
		child := 2*i + 1
		if child+1 < n && s.less(child+1, child) {
			child++
		}
		if child >= n || !s.less(child, i) {
			return d
		}
		s.heap[i], s.heap[child] = s.heap[child], s.heap[i]
		i = child
	}
}

func (s *scheduler) run() {
	defer s.wg.Done()
	var due []delivery
	woke := false
	for {
		s.mu.Lock()
		now := s.now()
		if woke { // the alarm fired: fold how late into the band
			s.band += (max(now-s.armed, 0) - s.band) / 8
			s.armed = 0
		}
		for len(s.heap) > 0 && s.heap[0].release <= now {
			due = append(due, s.pop())
		}
		if len(due) == 0 {
			at := now + time.Hour // nothing pending: a push or stop ends the wait
			if len(s.heap) > 0 {
				at = s.heap[0].release + s.band
			}
			s.arm(at)
		}
		s.mu.Unlock()

		woke = len(due) == 0
		if woke && !s.alarm.wait() {
			return
		}
		for i := range due {
			due[i].dst.put(due[i].msg)
			due[i] = delivery{}
		}
		due = due[:0]
	}
}
