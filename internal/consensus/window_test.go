package consensus

import (
	"fmt"
	"math/bits"
	"testing"
	"time"
	"unsafe"

	"repro/internal/transport"
)

// countApp is an application that only counts the operations it executes.
type countApp struct{ ops int }

func (a *countApp) Execute(_ int64, ops [][]byte) { a.ops += len(ops) }
func (a *countApp) Snapshot() []byte              { return nil }
func (a *countApp) Restore([]byte, int64)         {}

// windowSlots is how many window slots the replica holds over all clients.
func windowSlots(r *Replica) int {
	n := 0
	for _, c := range r.clients {
		n += len(c.window)
	}
	return n
}

// A follower that jumps to a checkpoint covering a request it pooled must
// drop the request: execute skips it as a duplicate, so it would stay pooled
// and, once RequestTimeout passed, indict a leader that did nothing wrong. A
// request the checkpoint does not cover still indicts one.
func TestCheckpointJumpDropsExecutedRequests(t *testing.T) {
	const timeout = 20 * time.Millisecond
	f := newFollower(t, Config{RequestTimeout: timeout})
	f.submit(EncodeRequest("client", 1, []byte("op-1")))
	if f.r.pending != 1 {
		t.Fatalf("pooled %d requests, want 1", f.r.pending)
	}

	// The group executed (client, 1) in instance 0 and checkpointed there.
	peer := newStandIn(t, 1, Config{})
	peer.r.execute(&instance{seq: 0, decided: true, reqs: []request{{ClientID: "client", Seq: 1, Op: []byte("op-1")}}})
	reply := (&stateReplyMsg{CheckpointSeq: 0, Snapshot: peer.r.wrapSnapshot()}).marshal()
	f.r.requestStateTransfer()
	f.deliver(1, msgStateReply, reply)
	f.deliver(2, msgStateReply, reply)
	if f.r.lastDelivered != 0 || f.r.fetching {
		t.Fatalf("state transfer left lastDelivered=%d fetching=%v, want the checkpoint at 0", f.r.lastDelivered, f.r.fetching)
	}
	if f.r.pending != 0 || f.r.pooled != 0 || f.r.clients["client"].find(1) != nil {
		t.Fatalf("the pool holds %d requests (%d counted) after a checkpoint covered them", f.r.pending, f.r.pooled)
	}
	time.Sleep(2 * timeout)
	f.r.onTick()
	if n := f.sentOf(msgStop); n != 0 {
		t.Fatalf("the follower sent %d STOPs over a request the checkpoint covers", n)
	}

	f.submit(EncodeRequest("client", 2, []byte("op-2")))
	time.Sleep(2 * timeout)
	f.r.onTick()
	if f.sentOf(msgStop) == 0 {
		t.Fatal("a request older than RequestTimeout indicted no leader")
	}
}

// Pooling a request costs no allocation of its own: a frame of 100 requests,
// pooled and executed, allocates at most a constant more than a frame of
// one (the window doubling to hold it, the arrival queue growing).
func TestPoolAndExecuteAllocationBudget(t *testing.T) {
	const runs = 20
	cost := func(k int) float64 {
		r, err := NewReplica(Config{SelfID: 3, Replicas: ids(4), BatchSize: 128}, &countApp{},
			&sinkConn{addr: ReplicaID(3).Addr()})
		if err != nil {
			t.Fatalf("new replica: %v", err)
		}
		frames := make([][]byte, runs+1)
		insts := make([]*instance, runs+1)
		for i := range frames {
			reqs := make([]queuedRequest, k)
			decoded := make([]request, k)
			for j := range reqs {
				seq := uint64(i*k + j + 1)
				reqs[j] = queuedRequest{seq: seq, op: []byte("op")}
				decoded[j] = request{ClientID: "client", Seq: seq, Op: reqs[j].op}
			}
			frames[i], _ = encodeFrame("client", reqs)
			insts[i] = &instance{seq: int64(i), decided: true, reqs: decoded}
		}
		i := 0
		got := testing.AllocsPerRun(runs, func() {
			r.onRequests("client", frames[i])
			r.execute(insts[i])
			r.onTick()
			i++
		})
		if r.pending != 0 || r.app.(*countApp).ops != k*(runs+1) {
			t.Fatalf("%d-request frames: %d left pooled, %d executed", k, r.pending, r.app.(*countApp).ops)
		}
		return got
	}
	one, hundred := cost(1), cost(100)
	if hundred > one+8 {
		t.Fatalf("pooling and executing a 100-request frame: %.0f allocations, a 1-request frame %.0f; want at most 8 more",
			hundred, one)
	}
}

// A grown window outlives an empty pool until a checkpoint interval passes
// in which its client pooled nothing: at saturation a client's pool empties
// between batches, and a window released then is grown again from
// windowFloor slots for the next batch. A 1,024-request pool/execute cycle
// allocates no window after the first; the checkpoint that closes the
// interval of those cycles keeps the window, and the next one, after an
// interval without a request, releases it.
func TestGrownWindowOutlivesEmptyPool(t *testing.T) {
	const k, runs = 1024, 10
	r, err := NewReplica(Config{SelfID: 3, Replicas: ids(4)}, &countApp{},
		&sinkConn{addr: ReplicaID(3).Addr()})
	if err != nil {
		t.Fatalf("new replica: %v", err)
	}
	frames := make([][]byte, runs+2)
	insts := make([]*instance, runs+2)
	for i := range frames {
		reqs := make([]queuedRequest, k)
		decoded := make([]request, k)
		for j := range reqs {
			seq := uint64(i*k + j + 1)
			reqs[j] = queuedRequest{seq: seq, op: []byte("op")}
			decoded[j] = request{ClientID: "client", Seq: seq, Op: reqs[j].op}
		}
		frames[i], _ = encodeFrame("client", reqs)
		insts[i] = &instance{seq: int64(i), decided: true, reqs: decoded}
	}
	i := 0
	cycle := func() {
		r.onRequests("client", frames[i])
		r.execute(insts[i])
		r.onTick()
		i++
	}
	cycle()
	rec := r.clients["client"]
	window := unsafe.SliceData(rec.window)
	if len(rec.window) != k || rec.pending() != 0 {
		t.Fatalf("after one cycle: a %d-slot window holding %d requests, want %d slots and none", len(rec.window), rec.pending(), k)
	}
	allocs := testing.AllocsPerRun(runs, cycle)
	if unsafe.SliceData(rec.window) != window || len(rec.window) != k {
		t.Fatalf("the window was reallocated (%d slots) by a cycle that fits the first one's", len(rec.window))
	}
	// Every window this cycle could allocate, from the floor to k slots.
	if allocs >= float64(bits.Len(k/windowFloor)) {
		t.Fatalf("a %d-request pool/execute cycle makes %.0f allocations", k, allocs)
	}
	r.checkpointAt(insts[i-1].seq)
	if unsafe.SliceData(rec.window) != window {
		t.Fatal("a checkpoint released the window of a client that pooled in its interval")
	}
	r.checkpointAt(insts[i-1].seq + 1)
	if rec.window != nil {
		t.Fatalf("a checkpoint kept the idle client's %d-slot window", len(rec.window))
	}
}

// A client that pools in every checkpoint interval keeps its grown window
// even when its pool is empty at each checkpoint: at saturation a
// checkpoint often falls between two batches, and releasing the window
// there regrows it from windowFloor slots for the next. Across three
// checkpoints the window is never reallocated.
func TestBusyWindowSurvivesCheckpoints(t *testing.T) {
	const k, rounds = 256, 3
	r, err := NewReplica(Config{SelfID: 3, Replicas: ids(4)}, &countApp{},
		&sinkConn{addr: ReplicaID(3).Addr()})
	if err != nil {
		t.Fatalf("new replica: %v", err)
	}
	var window *pendingReq // the window after the first round, the warm-up
	for i := 0; i <= rounds; i++ {
		reqs := make([]queuedRequest, k)
		decoded := make([]request, k)
		for j := range reqs {
			seq := uint64(i*k + j + 1)
			reqs[j] = queuedRequest{seq: seq, op: []byte("op")}
			decoded[j] = request{ClientID: "client", Seq: seq, Op: reqs[j].op}
		}
		frame, _ := encodeFrame("client", reqs)
		r.onRequests("client", frame)
		r.execute(&instance{seq: int64(i), decided: true, reqs: decoded})
		rec := r.clients["client"]
		if rec.pending() != 0 || len(rec.window) != k {
			t.Fatalf("round %d: a %d-slot window holding %d requests, want %d slots and none", i, len(rec.window), rec.pending(), k)
		}
		if i == 0 {
			window = unsafe.SliceData(rec.window)
		} else if unsafe.SliceData(rec.window) != window {
			t.Fatalf("round %d grew the window again after checkpoint %d", i, i-1)
		}
		r.checkpointAt(int64(i))
		if unsafe.SliceData(rec.window) != window {
			t.Fatalf("checkpoint %d released the window of a client that pooled in its interval", i)
		}
	}
	// A full interval without a request releases the idle window.
	rec := r.clients["client"]
	r.checkpointAt(rounds + 1)
	if rec.window != nil {
		t.Fatalf("a checkpoint after a silent interval kept the client's %d-slot window", len(rec.window))
	}
}

// Memory stays proportional to what is pooled: 1,000 clients that each send
// two sequences 2^40 apart (the two collide in every window that could hold
// both) leave the windows at a small multiple of the requests pooled, and
// every request still pools and executes once.
func TestWindowsStayProportionalToPool(t *testing.T) {
	const clients = 1000
	r, err := NewReplica(Config{SelfID: 3, Replicas: ids(4)}, &countApp{}, &sinkConn{addr: ReplicaID(3).Addr()})
	if err != nil {
		t.Fatalf("new replica: %v", err)
	}
	seqs := []uint64{7, 7 + 1<<40}
	frames := make([][][]byte, clients) // two each: a frame is a run of consecutive sequences
	for i := range frames {
		frames[i] = requestFrames(fmt.Sprintf("client-%d", i), []queuedRequest{
			{seq: seqs[0], op: []byte("first")}, {seq: seqs[1], op: []byte("second")},
		})
		for _, frame := range frames[i] {
			r.onRequests(frameSender(frame), frame)
		}
		if pooled := 2 * (i + 1); r.pending != pooled || windowSlots(r) > 4*pooled {
			t.Fatalf("after %d clients: %d requests pooled in %d window slots, want %d in at most %d",
				i+1, r.pending, windowSlots(r), pooled, 4*pooled)
		}
	}
	for i := range frames {
		id := fmt.Sprintf("client-%d", i)
		r.execute(&instance{seq: int64(i), decided: true, reqs: []request{
			{ClientID: id, Seq: seqs[0], Op: []byte("first")}, {ClientID: id, Seq: seqs[1], Op: []byte("second")},
		}})
		for _, frame := range frames[i] {
			r.onRequests(frameSender(frame), frame) // a duplicate: both already executed
		}
	}
	if ops := r.app.(*countApp).ops; ops != 2*clients || r.pending != 0 || r.pooled != 0 {
		t.Fatalf("executed %d operations of %d, %d left pooled (%d counted)", ops, 2*clients, r.pending, r.pooled)
	}
	for i := 0; i < clients; i++ {
		c := r.clients[fmt.Sprintf("client-%d", i)]
		if !c.contains(seqs[0]) || !c.contains(seqs[1]) || c.spill != nil {
			t.Fatalf("client %d: executed %v/%v, spill %v", i, c.contains(seqs[0]), c.contains(seqs[1]), c.spill)
		}
	}
}

// requestFrames encodes reqs as the frames a Client sends them in, one per
// run of consecutive sequence numbers.
func requestFrames(client string, reqs []queuedRequest) [][]byte {
	var frames [][]byte
	for len(reqs) > 0 {
		frame, n := encodeFrame(client, reqs)
		frames = append(frames, frame)
		reqs = reqs[n:]
	}
	return frames
}

// windowKey names a request of FuzzClientWindow: a client index and a seq.
type windowKey struct {
	client int
	seq    uint64
}

var windowClients = []string{"client-a", "client-b", "client-c"}

// windowSeq maps a fuzz byte to one of 48 sequence numbers: 16 next to the
// floor, 16 a session jump above them, 16 another 2^40 above those. Every
// 16-run of them fills a floor window and makes it grow; the same offset of
// two runs collides in every window.
func windowSeq(b byte) uint64 {
	return uint64((b>>4)%3)<<40 + uint64(b&15) + 1
}

// windowModel is FuzzClientWindow's model of a replica's pool and dedup
// state, kept in maps.
type windowModel struct {
	exec   map[windowKey]bool // executed by the replica under test
	peer   map[windowKey]bool // executed by the peer whose checkpoints it installs
	pool   []windowKey        // pooled, in arrival order
	flight map[windowKey]bool // pooled and in an open proposal
}

func (m *windowModel) pooledAt(k windowKey) int {
	for i, p := range m.pool {
		if p == k {
			return i
		}
	}
	return -1
}

func (m *windowModel) unpool(k windowKey) {
	if i := m.pooledAt(k); i >= 0 {
		m.pool = append(m.pool[:i], m.pool[i+1:]...)
		delete(m.flight, k)
	}
}

// maxExec is the highest sequence the model says the client executed.
func (m *windowModel) maxExec(client int) uint64 {
	var top uint64
	for k := range m.exec {
		if k.client == client {
			top = max(top, k.seq)
		}
	}
	return top
}

// FuzzClientWindow drives a replica's per-client windows and dedup state,
// with a seed corpus in testdata/fuzz: the input bytes pool request frames
// (duplicates included), take batches, execute instances (at the replica
// and at a peer, or at the peer alone), release a regency's proposals and
// install the peer's checkpoint, over three clients whose sequences sit
// next to the floor, across a session jump and 2^40 apart. After every step
// the replica must agree with a map model: which requests are pooled and
// how many are counted free, which are executed (a sequence windowCap or
// more below one executed may read as executed too), and which requests, in
// which order, a batch takes.
func FuzzClientWindow(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		r := newStandIn(t, 3, Config{BatchSize: 4}).r
		peer := newStandIn(t, 1, Config{BatchSize: 4}).r
		m := &windowModel{exec: map[windowKey]bool{}, peer: map[windowKey]bool{}, flight: map[windowKey]bool{}}
		contains := func(k windowKey) bool {
			c := r.clients[windowClients[k.client]]
			return c != nil && c.contains(k.seq)
		}
		next := func() byte {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return b
		}
		execAt := func(reps ...*Replica) {
			n := int(next()%4) + 1
			reqs := make([]request, n)
			for i := range reqs {
				b := next()
				reqs[i] = request{ClientID: windowClients[b%3], Seq: windowSeq(b / 3), Op: []byte{b}}
			}
			for _, rep := range reps {
				rep.deliver(&instance{seq: rep.lastDelivered + 1, decided: true, reqs: append([]request(nil), reqs...)})
			}
			for _, rq := range reqs {
				k := windowKey{client: int(rq.Op[0] % 3), seq: rq.Seq}
				m.peer[k] = true
				if len(reps) == 2 {
					m.unpool(k)
					m.exec[k] = true
				}
			}
		}
		for step := 0; len(in) > 0 && step < 256; step++ {
			switch op := next() % 7; op {
			case 0, 1: // a frame of one client's requests
				c, start, n := int(next()%3), next(), int(next()%8)+1
				reqs := make([]queuedRequest, n)
				for j := range reqs {
					reqs[j] = queuedRequest{seq: windowSeq(start + byte(j)), op: []byte{start + byte(j)}}
				}
				for _, frame := range requestFrames(windowClients[c], reqs) {
					r.onRequests(transport.Addr(windowClients[c]), frame)
				}
				for _, rq := range reqs {
					k := windowKey{client: c, seq: rq.seq}
					if !m.exec[k] && !contains(k) && m.pooledAt(k) < 0 {
						m.pool = append(m.pool, k)
					}
				}
			case 2: // the next batch
				reqs := r.collectBatch(new([]request))
				var want []windowKey
				for _, k := range m.pool {
					if !m.flight[k] && len(want) < 4 {
						want = append(want, k)
						m.flight[k] = true
					}
				}
				if len(reqs) != len(want) {
					t.Fatalf("step %d: a batch took %d requests, the model %d", step, len(reqs), len(want))
				}
				for i, k := range want {
					if reqs[i].ClientID != windowClients[k.client] || reqs[i].Seq != k.seq {
						t.Fatalf("step %d: batch entry %d is (%s, %d), the model's (%s, %d)",
							step, i, reqs[i].ClientID, reqs[i].Seq, windowClients[k.client], k.seq)
					}
				}
			case 3: // an instance executed here and at the peer
				execAt(r, peer)
			case 4: // an instance the peer executed without this replica
				execAt(peer)
			case 5: // a regency change
				r.releaseInFlight()
				clear(m.flight)
			case 6: // state transfer to the peer's checkpoint
				if _, ok := r.unwrapSnapshot(peer.wrapSnapshot()); !ok {
					t.Fatalf("step %d: the peer's checkpoint did not install", step)
				}
				clear(m.exec)
				for k := range m.peer {
					m.exec[k] = true
				}
				for _, k := range append([]windowKey(nil), m.pool...) {
					if m.exec[k] || contains(k) {
						m.unpool(k)
					}
				}
			}
			checkWindowModel(t, step, r, m, contains)
		}
	})
}

// checkWindowModel fails unless the replica agrees with the model on every
// request the fuzz target can name.
func checkWindowModel(t *testing.T, step int, r *Replica, m *windowModel, contains func(windowKey) bool) {
	t.Helper()
	for c := range windowClients {
		top := m.maxExec(c)
		rec := r.clients[windowClients[c]]
		for b := byte(0); b < 48; b++ {
			k := windowKey{client: c, seq: windowSeq(b)}
			if got := contains(k); m.exec[k] && !got {
				t.Fatalf("step %d: (%s, %d) was executed, the replica forgot it", step, windowClients[c], k.seq)
			} else if got && !m.exec[k] && k.seq+windowCap > top {
				t.Fatalf("step %d: (%s, %d) reads as executed, never was, and is within windowCap of one executed",
					step, windowClients[c], k.seq)
			}
			p := (*pendingReq)(nil)
			if rec != nil {
				p = rec.find(k.seq)
			}
			if want := m.pooledAt(k) >= 0; (p != nil) != want {
				t.Fatalf("step %d: (%s, %d) pooled %v, the model says %v", step, windowClients[c], k.seq, p != nil, want)
			}
			if p != nil && (p.inFlight != m.flight[k] || p.req.ClientID != windowClients[c] || p.req.Seq != k.seq ||
				windowSeq(p.req.Op[0]) != k.seq) {
				t.Fatalf("step %d: (%s, %d) in flight %v (model %v), pooled as (%s, %d, %x)", step, windowClients[c], k.seq,
					p.inFlight, m.flight[k], p.req.ClientID, p.req.Seq, p.req.Op)
			}
		}
	}
	free := len(m.pool) - len(m.flight)
	if r.pending != len(m.pool) || r.pooled != free {
		t.Fatalf("step %d: the replica counts %d pooled (%d free), the model %d (%d free)",
			step, r.pending, r.pooled, len(m.pool), free)
	}
}
