package consensus

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
)

// This file tests what keeping several consensus instances open exposes:
// the synchronization phase with more than one write certificate, the
// self-clock of the proposal scheduler, weighted votes over a slow network,
// and equivocation over a full window.

// unitApp is a recordApp whose output comes in units of unit operations, as
// the ordering service's blocks do: it has the Cutter capability.
type unitApp struct {
	recordApp
	unit     int
	executed int // event-loop confined, as OpsToCut is
}

var _ Cutter = (*unitApp)(nil)

func (a *unitApp) Execute(seq int64, ops [][]byte) {
	a.recordApp.Execute(seq, ops)
	a.executed += len(ops)
}

func (a *unitApp) OpsToCut(inflight int) int {
	return max(a.unit-a.executed%a.unit-inflight, 0)
}

// groupsCopy returns the executed (seq, ops) groups.
func (a *recordApp) groupsCopy() []execGroup {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]execGroup(nil), a.groups...)
}

// assertSameInstances verifies that the live replicas executed the same
// operations in the same consensus instances, with contiguous sequence
// numbers — stricter than assertSameOrder, which only sees the flattened
// order and so cannot tell an instance re-run from its certificate from
// one re-proposed with other batch boundaries.
func (tc *testCluster) assertSameInstances(skip map[int]bool) {
	tc.t.Helper()
	var reference []execGroup
	refIdx := -1
	for i, app := range tc.apps {
		if skip[i] {
			continue
		}
		groups := app.groupsCopy()
		for j, g := range groups {
			if g.seq != int64(j) {
				tc.t.Fatalf("replica %d executed seq %d at position %d: sequence not contiguous", i, g.seq, j)
			}
		}
		if refIdx == -1 {
			reference, refIdx = groups, i
			continue
		}
		if len(groups) != len(reference) {
			tc.t.Fatalf("replica %d executed %d instances, replica %d executed %d",
				i, len(groups), refIdx, len(reference))
		}
		for j := range groups {
			if len(groups[j].ops) != len(reference[j].ops) {
				tc.t.Fatalf("instance %d: replica %d executed %d ops, replica %d executed %d",
					j, i, len(groups[j].ops), refIdx, len(reference[j].ops))
			}
			for k := range groups[j].ops {
				if !bytes.Equal(groups[j].ops[k], reference[j].ops[k]) {
					tc.t.Fatalf("instance %d op %d: replica %d has %q, replica %d has %q",
						j, k, i, groups[j].ops[k], refIdx, reference[j].ops[k])
				}
			}
		}
	}
}

// assertExactlyOnce verifies that replica i executed each submitted op once
// and nothing else.
func (tc *testCluster) assertExactlyOnce(i int, submitted []string) {
	tc.t.Helper()
	seen := make(map[string]int, len(submitted))
	for _, op := range tc.apps[i].opsFlat() {
		seen[string(op)]++
	}
	for _, op := range submitted {
		if seen[op] != 1 {
			tc.t.Fatalf("replica %d executed %q %d times, want once", i, op, seen[op])
		}
	}
	if len(seen) != len(submitted) {
		tc.t.Fatalf("replica %d executed %d distinct ops, %d were submitted", i, len(seen), len(submitted))
	}
}

// assertPoolCounted verifies the scheduler's O(1) pool count against the
// pool itself on every live replica.
func (tc *testCluster) assertPoolCounted(skip map[int]bool) {
	tc.t.Helper()
	for i, rep := range tc.replicas {
		if skip[i] {
			continue
		}
		var pooled, counted int
		rep.Inspect(func() {
			pooled = rep.pooled
			rep.eachPooled(func(p *pendingReq) {
				if !p.inFlight {
					counted++
				}
			})
		})
		if pooled != counted {
			tc.t.Fatalf("replica %d counts %d pooled requests, the pool holds %d", i, pooled, counted)
		}
	}
}

// proposal is one PROPOSE as the leader's scheduler saw it.
type proposal struct {
	seq     int64
	at      time.Time     // the scheduler's clock for this PROPOSE
	size    int           // requests in the batch
	open    int64         // window occupancy including this instance
	latency time.Duration // the leader's instance-latency estimate
	left    int           // requests left pooled, not in any proposal
}

// proposalRecorder observes a leader's PROPOSEs through the network filter.
// Without an egress model a Send routes inline, so the filter runs on the
// sending replica's event loop and may read its protocol state.
type proposalRecorder struct {
	mu   sync.Mutex
	seen []proposal
	sent []time.Time // when each request frame to the leader was sent
}

func (pr *proposalRecorder) watch(tc *testCluster, leader *Replica) {
	tc.net.SetFilter(func(m transport.Message) bool {
		if m.Type == msgRequest && m.To == leader.ID().Addr() {
			pr.mu.Lock()
			pr.sent = append(pr.sent, time.Now())
			pr.mu.Unlock()
			return true
		}
		if m.Type != msgPropose || m.From != leader.ID().Addr() {
			return true
		}
		pm := new(proposeMsg)
		if err := unmarshalPropose(m.Payload, pm); err != nil {
			return true
		}
		pr.mu.Lock()
		defer pr.mu.Unlock()
		if n := len(pr.seen); n > 0 && pr.seen[n-1].seq >= pm.Seq {
			return true // the same PROPOSE on its way to another follower
		}
		pr.seen = append(pr.seen, proposal{
			seq:     pm.Seq,
			at:      leader.lastProposeAt,
			size:    len(pm.Entries),
			open:    leader.openInstances(),
			latency: time.Duration(leader.instanceLatency.Load()),
			left:    leader.pooled,
		})
		return true
	})
}

// pooledBy is the earliest instant, from prev's PROPOSE on, at which the
// leader held a pooled request, on links of the given one-way delay: that
// PROPOSE itself when it left requests pooled, else the arrival of the next
// request frame.
func (pr *proposalRecorder) pooledBy(prev proposal, delay time.Duration) time.Time {
	if prev.left > 0 {
		return prev.at
	}
	pr.mu.Lock()
	defer pr.mu.Unlock()
	for _, sent := range pr.sent {
		if at := sent.Add(delay); at.After(prev.at) {
			return at
		}
	}
	return time.Time{}
}

func (pr *proposalRecorder) proposals() []proposal {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	return append([]proposal(nil), pr.seen...)
}

// maxOpen is the highest window occupancy any PROPOSE was sent at.
func (pr *proposalRecorder) maxOpen() int64 {
	var max int64
	for _, p := range pr.proposals() {
		if p.open > max {
			max = p.open
		}
	}
	return max
}

// TestPipelinedLeaderChangeCarriesEveryOpenCertificate mutes the leader
// while several of its instances are write-certified at two followers but
// decided by nobody else: the muted leader (which still receives) decides
// them all, so the next regency must re-run every one of them from its
// certificate, not just the lowest. It fails if openCerts reports only the
// lowest open instance: the new leader then re-proposes the other requests
// with different batch boundaries, and the old leader's decided instances
// contradict the group's.
func TestPipelinedLeaderChangeCarriesEveryOpenCertificate(t *testing.T) {
	const delay = 40 * time.Millisecond
	tc := newTestCluster(t, clusterOpts{
		n: 4, batchSize: 64, latency: delay, durable: true, withKeys: true,
		requestTimeout: time.Second,
	})
	client := tc.client(t, "client-1")
	leader := tc.replicas[0]

	var submitted []string
	submit := func(count int, every time.Duration) {
		t.Helper()
		for i := 0; i < count; i++ {
			op := fmt.Sprintf("op-%03d", len(submitted))
			submitted = append(submitted, op)
			if err := client.Invoke([]byte(op)); err != nil {
				t.Fatalf("invoke %s: %v", op, err)
			}
			time.Sleep(every)
		}
	}

	// A first instance gives the leader its latency estimate (three 40 ms
	// steps, so its partial batches then go 15 ms apart).
	submit(3, 0)
	tc.waitAllDelivered(len(submitted), 5*time.Second, nil)

	// Then a trickle of requests opens one small instance after another. As
	// soon as three are open — inside one event-loop turn, so every PROPOSE
	// and the leader's WRITE for it are on the wire and nothing else of the
	// leader's is — the leader goes mute and replica 3 is cut off from the
	// other replicas.
	muted := make(chan struct{})
	go func() {
		defer close(muted)
		for {
			cut := false
			ok := leader.Inspect(func() {
				if leader.openInstances() >= 3 {
					leader.SetBehavior(Behavior{Mute: true})
					tc.net.Partition(
						[]transport.Addr{ReplicaID(3).Addr()},
						[]transport.Addr{ReplicaID(0).Addr(), ReplicaID(1).Addr(), ReplicaID(2).Addr()})
					cut = true
				}
			})
			if cut || !ok {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	submit(30, 2*time.Millisecond)
	select {
	case <-muted:
	case <-time.After(5 * time.Second):
		t.Fatal("the leader never had three instances open")
	}

	// Replicas 1 and 2 certify the open instances (their two WRITEs plus the
	// leader's) but cannot decide them: the leader's ACCEPT is muted and
	// replica 3 is cut off.
	certifiedUndecided := func(r *Replica) (n int) {
		r.Inspect(func() {
			for _, inst := range r.instances {
				if inst.writeCertified && !inst.decided {
					n++
				}
			}
		})
		return n
	}
	waitFor(t, 5*time.Second, "several write certificates open at replicas 1 and 2", func() bool {
		return certifiedUndecided(tc.replicas[1]) >= 3 && certifiedUndecided(tc.replicas[2]) >= 3
	})
	tc.net.Heal()

	// The request timers of replicas 1-3 fire, regency 1 installs, and
	// every op is executed by the three of them.
	skip := map[int]bool{0: true}
	tc.waitAllDelivered(len(submitted), 15*time.Second, skip)
	for i := 1; i < 4; i++ {
		if reg := tc.replicas[i].Stats().Regency; reg < 1 {
			t.Fatalf("replica %d still in regency %d", i, reg)
		}
	}

	// The old leader is a correct replica whose messages were lost: once
	// it can talk again its history must be the group's, instance by
	// instance.
	leader.SetBehavior(Behavior{})
	submit(6, 2*time.Millisecond)
	tc.waitAllDelivered(len(submitted), 15*time.Second, nil)
	tc.assertSameInstances(nil)
	tc.assertPoolCounted(nil)
	for i := range tc.replicas {
		tc.assertExactlyOnce(i, submitted)
	}

	// Every replica logged its decisions densely and in order.
	for i, log := range tc.logs {
		events := log.recorded()
		if len(events) < len(tc.apps[i].groupsCopy()) {
			t.Fatalf("replica %d logged %d decisions for %d executed instances",
				i, len(events), len(tc.apps[i].groupsCopy()))
		}
		for seq, ev := range events {
			if want := fmt.Sprintf("decision:%d", seq); ev != want {
				t.Fatalf("replica %d: log position %d holds %q, want %q", i, seq, ev, want)
			}
		}
	}
}

// TestPipelinedNoOverlapOnFastNetwork is the LAN guarantee for an
// application without the Cutter capability (recordApp has none): where an
// instance decides well within BatchTimeout, no partial batch is ever
// proposed while another instance is undecided, so batches are exactly as
// large as with one instance at a time.
func TestPipelinedNoOverlapOnFastNetwork(t *testing.T) {
	const batchSize = 64
	tc := newTestCluster(t, clusterOpts{n: 4, batchSize: batchSize, batchTimeout: 100 * time.Millisecond})
	var rec proposalRecorder
	rec.watch(tc, tc.replicas[0])

	const clients, each = 3, 120
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		client := tc.client(t, fmt.Sprintf("client-%d", c))
		wg.Add(1)
		go func(cl *Client, c int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := cl.Invoke([]byte(fmt.Sprintf("c%d-op%d", c, i))); err != nil {
					t.Errorf("invoke: %v", err)
					return
				}
				if i%7 == 0 {
					time.Sleep(time.Millisecond)
				}
			}
		}(client, c)
	}
	wg.Wait()
	tc.waitAllDelivered(clients*each, 10*time.Second, nil)
	tc.assertSameInstances(nil)
	tc.assertPoolCounted(nil)

	proposed, partial := 0, 0
	for _, p := range rec.proposals() {
		proposed += p.size
		if p.size == batchSize {
			continue
		}
		partial++
		if p.open != 1 {
			t.Fatalf("instance %d: partial batch of %d proposed with %d other instances undecided",
				p.seq, p.size, p.open-1)
		}
	}
	if proposed != clients*each || partial < 2 {
		t.Fatalf("observed %d requests in proposals (%d partial batches), %d were ordered",
			proposed, partial, clients*each)
	}
}

// TestPipelinedSelfClockSpacesProposals is the anti-clumping guarantee: on
// a slow network the window fills, and while anything is in flight two
// consecutive partial-batch PROPOSEs are never closer than L/k, for the
// k = min(PipelineDepth, L/BatchTimeout) instances the clock keeps open.
func TestPipelinedSelfClockSpacesProposals(t *testing.T) {
	const (
		delay        = 50 * time.Millisecond
		batchSize    = 256
		batchTimeout = 2 * time.Millisecond
	)
	tc := newTestCluster(t, clusterOpts{n: 4, batchSize: batchSize, batchTimeout: batchTimeout, latency: delay})
	leader := tc.replicas[0]
	var rec proposalRecorder
	rec.watch(tc, leader)

	client := tc.client(t, "client-1")
	const total = 600
	for i := 0; i < total; i++ {
		if err := client.Invoke([]byte(fmt.Sprintf("op-%04d", i))); err != nil {
			t.Fatalf("invoke: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	tc.waitAllDelivered(total, 15*time.Second, nil)
	tc.assertSameInstances(nil)
	tc.assertPoolCounted(nil)

	proposals := rec.proposals()
	paced := 0
	for i, p := range proposals {
		if p.open > PipelineDepth {
			t.Fatalf("instance %d proposed with %d instances open, window is %d", p.seq, p.open, PipelineDepth)
		}
		if i == 0 || p.open == 1 || p.size >= batchSize {
			continue
		}
		k := int64(p.latency / batchTimeout)
		if k > PipelineDepth {
			k = PipelineDepth
		}
		if p.open > k {
			t.Fatalf("instance %d: partial batch proposed with %d open; L = %v holds only %d batch timeouts",
				p.seq, p.open-1, p.latency, k)
		}
		pace := p.latency / time.Duration(k)
		if gap := p.at.Sub(proposals[i-1].at); gap < pace {
			t.Fatalf("instance %d proposed %v after instance %d with %d open; the pace was %v (L = %v)",
				p.seq, gap, proposals[i-1].seq, p.open-1, pace, p.latency)
		}
		paced++
	}
	if maxOpen := rec.maxOpen(); maxOpen < 4 {
		t.Fatalf("window occupancy peaked at %d on a %v network, want >= 4", maxOpen, delay)
	}
	if paced < 10 {
		t.Fatalf("only %d proposals were paced by a measured instance latency", paced)
	}

	// An instance is three one-way steps; the estimate is exported, and
	// only by the leader.
	if l := leader.Stats().InstanceLatency; l < 3*delay || l > 6*delay {
		t.Fatalf("leader reports instance latency %v on a %v network", l, delay)
	}
	if s := tc.replicas[1].Stats(); s.InstanceLatency != 0 || s.OpenInstances != 0 {
		t.Fatalf("follower reports window %d / latency %v", s.OpenInstances, s.InstanceLatency)
	}
}

// TestPipelinedWeightedOverSlowNetwork runs WHEAT (weighted votes) with the
// window open: an instance leaves the window at its decision, three one-way
// steps after its PROPOSE as without weights, and every replica executes the
// same decided instances.
func TestPipelinedWeightedOverSlowNetwork(t *testing.T) {
	const delay = 30 * time.Millisecond
	weights, err := BinaryWeights(ids(5), 1, 1, []ReplicaID{0, 4})
	if err != nil {
		t.Fatalf("weights: %v", err)
	}
	tc := newTestCluster(t, clusterOpts{
		n: 5, weights: weights, latency: delay, batchSize: 64,
		requestTimeout: 5 * time.Second,
	})
	leader := tc.replicas[0]
	var rec proposalRecorder
	rec.watch(tc, leader)

	client := tc.client(t, "client-1")
	const total = 300
	for i := 0; i < total; i++ {
		if err := client.Invoke([]byte(fmt.Sprintf("op-%04d", i))); err != nil {
			t.Fatalf("invoke: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	tc.waitAllDelivered(total, 10*time.Second, nil)
	tc.assertSameInstances(nil)
	tc.assertPoolCounted(nil)

	if maxOpen := rec.maxOpen(); maxOpen < 2 || maxOpen > PipelineDepth {
		t.Fatalf("window occupancy peaked at %d, want 2..%d", maxOpen, PipelineDepth)
	}
	if l := leader.Stats().InstanceLatency; l < 3*delay || l > 6*delay {
		t.Fatalf("leader reports instance latency %v on a %v network", l, delay)
	}
	tc.assertDecidedAll(nil)
}

// TestPipelinedEquivocatingLeaderWithFullWindow lets a leader equivocate on
// every instance of a window it fills: no conflicting value may gather a
// quorum, the leader is voted out, and the honest replicas execute every
// op exactly once in the same instances.
func TestPipelinedEquivocatingLeaderWithFullWindow(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{
		n: 4, batchSize: 4, latency: 20 * time.Millisecond, withKeys: true,
		requestTimeout: 400 * time.Millisecond,
	})
	leader := tc.replicas[0]
	var rec proposalRecorder
	rec.watch(tc, leader)

	client := tc.client(t, "client-1")
	var submitted []string
	submit := func(count int) {
		t.Helper()
		for i := 0; i < count; i++ {
			op := fmt.Sprintf("op-%03d", len(submitted))
			submitted = append(submitted, op)
			if err := client.Invoke([]byte(op)); err != nil {
				t.Fatalf("invoke: %v", err)
			}
		}
	}
	// An honest first instance: a leader overlaps instances only once it
	// has seen one of its own delivered.
	submit(4)
	tc.waitAllDelivered(len(submitted), 5*time.Second, nil)
	leader.SetBehavior(Behavior{Equivocate: true})
	submit(40) // ten full batches: they go at once, as far as the window allows
	skip := map[int]bool{0: true}
	tc.waitAllDelivered(len(submitted), 15*time.Second, skip)

	if maxOpen := rec.maxOpen(); maxOpen < 3 {
		t.Fatalf("the equivocating leader only ever had %d instances open", maxOpen)
	}
	for i := 1; i < 4; i++ {
		if reg := tc.replicas[i].Stats().Regency; reg < 1 {
			t.Fatalf("replica %d still in regency %d", i, reg)
		}
		tc.assertExactlyOnce(i, submitted)
	}
	tc.assertSameInstances(skip)
	tc.assertPoolCounted(skip)
}

// opsFrame is one request frame of client "client" carrying ops first ..
// first+count-1, each numbered one above its index.
func opsFrame(first, count int) []byte {
	reqs := make([]queuedRequest, count)
	for i := range reqs {
		reqs[i] = queuedRequest{seq: uint64(first + i + 1), op: []byte(fmt.Sprintf("op-%d", first+i))}
	}
	frame, _ := encodeRequestFrame("client", reqs)
	return frame
}

// TestPipelinedLastRequestOfUnitProposedAtOnce: a unit (a block) is released
// only once its last request is delivered, so the request that completes one
// does not wait for the open instance. Instance 0 stays open — its peers'
// WRITEs and ACCEPTs are held back, the stand-in delivers none — and the
// leader, which pools a unit's second and third request without proposing,
// proposes the moment its fourth arrives, with no tick in between. Without
// the Cutter capability the leader keeps one instance at a time: the same
// requests wait, a tick included, for instance 0's delivery.
func TestPipelinedLastRequestOfUnitProposedAtOnce(t *testing.T) {
	for _, tc := range []struct {
		name string
		app  Application
		want int // instances proposed while instance 0 is open
	}{
		{"with the capability", &unitApp{unit: 4}, 2},
		{"without it", &recordApp{}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := newStandInOf(t, 0, Config{}, tc.app)
			l.submit(opsFrame(0, 1))
			if props := l.proposals(t); len(props) != 1 || len(props[0].Batch) != 1 {
				t.Fatalf("an idle leader made %d PROPOSEs of one request, want 1", len(props))
			}
			l.submit(opsFrame(1, 2))
			l.r.onTick()
			if props := l.proposals(t); len(props) != 1 {
				t.Fatalf("two requests short of a unit made %d PROPOSEs with instance 0 open, want 1", len(props))
			}
			l.submit(opsFrame(3, 1))
			props := l.proposals(t)
			if len(props) != tc.want {
				t.Fatalf("the request completing a unit: %d instances proposed while instance 0 is open, want %d", len(props), tc.want)
			}
			if tc.want == 2 && (props[1].Seq != 1 || len(props[1].Batch) != 3) {
				t.Fatalf("proposed instance %d of %d requests, want instance 1 of 3", props[1].Seq, len(props[1].Batch))
			}
			l.r.onTick()
			if props = l.proposals(t); len(props) != tc.want {
				t.Fatalf("a tick later, %d instances proposed while instance 0 is open, want %d", len(props), tc.want)
			}
			if l.r.lastDelivered != -1 {
				t.Fatalf("instance 0 was delivered (up to %d) with its votes held back", l.r.lastDelivered)
			}
		})
	}
}

// TestPipelinedUnitCompletingInstanceIsNotJoined: an open instance that
// already completes a unit is not joined by another, whatever the pool
// holds: the next unit's requests wait for its delivery, a tick included, as
// with one instance at a time. That keeps saturation, where every instance
// completes a unit, as it was.
func TestPipelinedUnitCompletingInstanceIsNotJoined(t *testing.T) {
	l := newStandInOf(t, 0, Config{}, &unitApp{unit: 4})
	l.submit(opsFrame(0, 4))
	l.submit(opsFrame(4, 4))
	l.r.onTick()
	props := l.proposals(t)
	if len(props) != 1 || len(props[0].Batch) != 4 {
		t.Fatalf("%d PROPOSEs while a whole unit is open, want 1 of 4 requests", len(props))
	}
	// Instance 0's requests leave the pool as it executes: only what is sent
	// from here on still resolves.
	l.conn.sent = l.conn.sent[:0]
	l.decideFor(0, props[0].Digest)
	if l.r.lastDelivered != 0 {
		t.Fatalf("instance 0 decided but delivered only to %d", l.r.lastDelivered)
	}
	if props = l.proposals(t); len(props) != 1 || props[0].Seq != 1 || len(props[0].Batch) != 4 {
		t.Fatalf("instance 0's delivery made %d PROPOSEs, want instance 1 of the next unit's 4 requests", len(props))
	}
}

// TestPipelinedUnitsOverlapByOneOnFastNetwork runs clients against a group
// whose application has the Cutter capability on a fast network: the only
// overlap is one instance proposed beside the open one to complete a unit,
// and it changes nothing the replicas agree on.
func TestPipelinedUnitsOverlapByOneOnFastNetwork(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{n: 4, batchSize: 64, batchTimeout: 100 * time.Millisecond, unit: 10})
	var rec proposalRecorder
	rec.watch(tc, tc.replicas[0])

	const clients, each = 3, 120
	var wg sync.WaitGroup
	var submitted []string
	for c := 0; c < clients; c++ {
		for i := 0; i < each; i++ {
			submitted = append(submitted, fmt.Sprintf("c%d-op%d", c, i))
		}
		client := tc.client(t, fmt.Sprintf("client-%d", c))
		wg.Add(1)
		go func(cl *Client, c int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := cl.Invoke([]byte(fmt.Sprintf("c%d-op%d", c, i))); err != nil {
					t.Errorf("invoke: %v", err)
					return
				}
				if i%7 == 0 {
					time.Sleep(time.Millisecond)
				}
			}
		}(client, c)
	}
	wg.Wait()
	tc.waitAllDelivered(clients*each, 10*time.Second, nil)
	tc.assertSameInstances(nil)
	tc.assertPoolCounted(nil)
	for i := range tc.replicas {
		tc.assertExactlyOnce(i, submitted)
	}
	if maxOpen := rec.maxOpen(); maxOpen > 2 {
		t.Fatalf("%d instances open at once on a fast network, want at most 2", maxOpen)
	}
}

// TestPipelinedWindowFollowsTheLink: on a link where an instance takes about
// 50 batch timeouts, as on the paper's WAN, the window is not capped below
// that. More than eight instances are open at once, and while the window is
// in use, partial batches leave at most 2 × BatchTimeout + tickInterval
// apart: L/k for k = L/BatchTimeout is less than two batch timeouts, and the
// rule is evaluated at least every tick. A window capped at eight spaced
// them L/8 ≈ 30 ms apart, and every request waited for a slot.
func TestPipelinedWindowFollowsTheLink(t *testing.T) {
	const (
		delay        = 80 * time.Millisecond // an instance: three one-way steps, about 250 ms
		batchTimeout = 5 * time.Millisecond
		batchSize    = 256
	)
	tc := newTestCluster(t, clusterOpts{n: 4, batchSize: batchSize, batchTimeout: batchTimeout, latency: delay})
	leader := tc.replicas[0]
	var rec proposalRecorder
	rec.watch(tc, leader)

	client := tc.client(t, "client-1")
	// A first instance gives the leader its latency estimate.
	if err := client.Invoke([]byte("warm-up")); err != nil {
		t.Fatalf("invoke: %v", err)
	}
	tc.waitAllDelivered(1, 5*time.Second, nil)
	const total = 1200
	for i := 0; i < total; i++ {
		if err := client.Invoke([]byte(fmt.Sprintf("op-%04d", i))); err != nil {
			t.Fatalf("invoke: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	tc.waitAllDelivered(total+1, 15*time.Second, nil)
	tc.assertSameInstances(nil)
	tc.assertPoolCounted(nil)

	if maxOpen := rec.maxOpen(); maxOpen <= 8 {
		t.Fatalf("window occupancy peaked at %d on a %v link, want more than 8", maxOpen, delay)
	}
	// A partial batch is due L/k after the previous PROPOSE, or when the
	// next request arrives if the pool ran empty. A process stall (the race
	// detector's, or a loaded machine's, of tens of milliseconds) delays
	// every goroutine at once and makes a few PROPOSEs late whatever the
	// rule: the test allows 5 % of them. A window capped at eight makes
	// every one late.
	bound := 2*batchTimeout + tickInterval
	proposals := rec.proposals()
	paced, late := 0, 0
	for i := 1; i < len(proposals); i++ {
		p, prev := proposals[i], proposals[i-1]
		if prev.open == 1 || p.open == 1 || p.size >= batchSize || prev.seq < 1 {
			continue // the window is not in use, or the warm-up
		}
		paced++
		if gap := p.at.Sub(prev.at); gap > bound && p.at.Sub(rec.pooledBy(prev, delay)) > tickInterval {
			late++
			t.Logf("instance %d proposed %v after instance %d with %d open (L = %v), want at most %v",
				p.seq, gap, prev.seq, p.open-1, p.latency, bound)
		}
	}
	if paced < 100 || late*20 > paced {
		t.Fatalf("%d of %d consecutive partial PROPOSEs with the window in use were late, want at most 5 %%", late, paced)
	}
}
