package consensus

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// sinkConn is a transport endpoint that records what a replica sends and
// delivers nothing: a test that stands in for the event loop feeds the
// replica's handlers itself.
type sinkConn struct {
	addr transport.Addr
	sent []transport.Message
}

func (c *sinkConn) Addr() transport.Addr { return c.addr }
func (c *sinkConn) Send(to transport.Addr, msgType uint16, payload []byte) {
	c.sent = append(c.sent, transport.Message{From: c.addr, To: to, Type: msgType, Payload: payload})
}
func (c *sinkConn) Inbox() <-chan transport.Message { return nil }
func (c *sinkConn) Close() error                    { return nil }

// standIn is a replica of a four-replica group, never started: the test
// goroutine delivers its messages in place of the event loop.
type standIn struct {
	r     *Replica
	conn  *sinkConn
	addrs []transport.Addr
}

func newStandIn(t testing.TB, self ReplicaID, cfg Config, opts ...Option) *standIn {
	t.Helper()
	return newStandInOf(t, self, cfg, &recordApp{}, opts...)
}

// newStandInOf is a stand-in driving app.
func newStandInOf(t testing.TB, self ReplicaID, cfg Config, app Application, opts ...Option) *standIn {
	t.Helper()
	cfg.SelfID, cfg.Replicas = self, ids(4)
	f := &standIn{conn: &sinkConn{addr: self.Addr()}}
	for _, id := range cfg.Replicas {
		f.addrs = append(f.addrs, id.Addr())
	}
	var err error
	if f.r, err = NewReplica(cfg, app, f.conn, opts...); err != nil {
		t.Fatalf("new replica: %v", err)
	}
	return f
}

// newFollower is replica 3, a follower in regency 0.
func newFollower(t testing.TB, cfg Config, opts ...Option) *standIn {
	return newStandIn(t, 3, cfg, opts...)
}

// newLeader is replica 0, the leader of regency 0.
func newLeader(t testing.TB, cfg Config, opts ...Option) *standIn {
	return newStandIn(t, 0, cfg, opts...)
}

// batchAt is the one-request batch the leader proposes for seq.
func batchAt(seq int64) []request {
	return []request{{ClientID: "client", Seq: uint64(seq + 1), Op: []byte(fmt.Sprintf("op-%d", seq))}}
}

// deliver hands the stand-in one protocol message from a peer.
func (f *standIn) deliver(from ReplicaID, msgType uint16, payload []byte) {
	f.r.dispatch(transport.Message{From: f.addrs[from], To: f.conn.addr, Type: msgType, Payload: payload})
}

func (f *standIn) propose(seq int64) {
	f.deliver(0, msgPropose, (&proposeMsg{Regency: 0, Seq: seq, Batch: batchAt(seq)}).marshal())
}

// decideByPeers delivers WRITEs and then ACCEPTs for seq's batch from the
// three other replicas: a quorum of each, with or without the follower.
func (f *standIn) decideByPeers(seq int64) {
	vote := (&voteMsg{Regency: 0, Seq: seq, Digest: batchDigest(seq, batchAt(seq))}).marshal()
	for _, typ := range []uint16{msgWrite, msgAccept} {
		for _, from := range []ReplicaID{0, 1, 2} {
			f.deliver(from, typ, vote)
		}
	}
}

// wrote reports whether the follower sent a WRITE for seq's batch.
func (f *standIn) wrote(seq int64) bool {
	want := batchDigest(seq, batchAt(seq))
	for _, m := range f.conn.sent {
		if m.Type != msgWrite {
			continue
		}
		if vm, err := unmarshalVote(m.Payload); err == nil && vm.Seq == seq && vm.Digest == want {
			return true
		}
	}
	return false
}

// A PROPOSE more than stateGapThreshold instances ahead of a follower's
// delivery point is what a follower sees when a quorum left it behind. It
// asks for state transfer, but the leader sends the PROPOSE once: a follower
// that dropped it could only wait for a leader change once it had caught
// up. It must register the PROPOSE, WRITE for it, and deliver the instance
// from it once the instances before it are decided.
func TestProposeBeyondStateGapIsNotStranded(t *testing.T) {
	f := newFollower(t, Config{})
	far := f.r.lastDelivered + stateGapThreshold + 1 // 17 instances ahead
	f.propose(far)
	if !f.r.fetching {
		t.Fatal("a PROPOSE beyond the state-transfer gap did not start a state transfer")
	}

	// The follower catches up through the decided instances below it.
	for seq := int64(0); seq < far; seq++ {
		f.propose(seq)
		f.decideByPeers(seq)
	}
	if f.r.lastDelivered != far-1 {
		t.Fatalf("caught up to %d, want %d", f.r.lastDelivered, far-1)
	}

	f.decideByPeers(far)
	if !f.wrote(far) {
		t.Fatalf("the follower never sent a WRITE for instance %d", far)
	}
	if f.r.lastDelivered != far {
		t.Fatalf("instance %d decided by its peers but delivered only to %d", far, f.r.lastDelivered)
	}
	if ops := f.r.app.(*recordApp).opsFlat(); len(ops) != int(far+1) || string(ops[far]) != fmt.Sprintf("op-%d", far) {
		t.Fatalf("executed %d ops, the last %q", len(ops), ops[len(ops)-1])
	}

	// Beyond instanceWindow a PROPOSE is still dropped: votes are not
	// counted there either.
	beyond := f.r.lastDelivered + instanceWindow + 1
	f.propose(beyond)
	if _, ok := f.r.instances[beyond]; ok || f.wrote(beyond) {
		t.Fatalf("a PROPOSE %d instances ahead was registered", instanceWindow+1)
	}
}

// What an instance costs besides its batch: nothing. A WRITE+ACCEPT round
// on a live instance allocates only the outgoing ACCEPT's payload (the
// round stops one ACCEPT short of the decision, whose cost is the
// application's), and opening an instance that a checkpoint retired
// allocates nothing.
func TestInstanceAllocationBudgets(t *testing.T) {
	f := newFollower(t, Config{CheckpointInterval: 4})
	f.conn.sent = make([]transport.Message, 0, 1<<12)

	// Live instances 0..15, each with the follower's own WRITE counted.
	const live = stateGapThreshold
	votes := make([][]byte, live)
	for seq := int64(0); seq < live; seq++ {
		f.propose(seq)
		votes[seq] = (&voteMsg{Regency: 0, Seq: seq, Digest: batchDigest(seq, batchAt(seq))}).marshal()
	}
	next := int64(0)
	if got := testing.AllocsPerRun(live-1, func() {
		f.deliver(0, msgWrite, votes[next])
		f.deliver(1, msgWrite, votes[next]) // a quorum: the follower ACCEPTs
		f.deliver(2, msgWrite, votes[next])
		f.deliver(0, msgAccept, votes[next])
		next++
	}); got > 1 {
		t.Fatalf("a WRITE+ACCEPT round: %.1f allocations, want 1 (the ACCEPT payload)", got)
	}
	for seq := int64(0); seq < live; seq++ {
		if inst := f.r.instances[seq]; !inst.acceptSent || inst.decided || len(inst.accepts.votes) != 2 {
			t.Fatalf("instance %d after its round: acceptSent=%v decided=%v accepts=%d",
				seq, inst.acceptSent, inst.decided, len(inst.accepts.votes))
		}
	}

	// The checkpoint at instance 3 retires instances 0..3.
	for seq := int64(0); seq < 4; seq++ {
		f.deliver(1, msgAccept, votes[seq])
	}
	if f.r.checkpointSeq != 3 || len(f.r.spare) != 4 {
		t.Fatalf("checkpoint at %d with %d instances retired, want 3 and 4", f.r.checkpointSeq, len(f.r.spare))
	}
	open := int64(100)
	if got := testing.AllocsPerRun(3, func() {
		f.r.instance(open)
		open++
	}); got != 0 {
		t.Fatalf("opening a reused instance: %.1f allocations, want 0", got)
	}
	for seq := int64(100); seq < open; seq++ {
		inst := f.r.instances[seq]
		if inst.seq != seq || inst.haveProposal || inst.decided || inst.reqs != nil ||
			len(inst.writes.votes) != 0 || len(inst.accepts.votes) != 0 {
			t.Fatalf("reused instance %d kept state: %+v", seq, inst)
		}
	}
}

// submit hands the stand-in one request frame from the client it names.
func (f *standIn) submit(frame []byte) {
	f.r.dispatch(transport.Message{From: frameSender(frame), To: f.conn.addr, Type: msgRequest, Payload: frame})
}

// frameSender is the client a request frame names: the one sender a
// replica pools the frame from.
func frameSender(frame []byte) transport.Addr {
	client, _, _, _ := readFrameHeader(wire.NewReader(frame))
	return transport.Addr(client)
}

// proposals returns the PROPOSEs the stand-in sent, one per instance (a
// PROPOSE goes to every peer), each resolved against the pool it was built
// from: its references became the entries they name, and those hash to the
// digest it carries.
func (f *standIn) proposals(t *testing.T) []*proposeMsg {
	t.Helper()
	var out []*proposeMsg
	seen := make(map[int64]bool)
	for _, m := range f.conn.sent {
		if m.Type != msgPropose {
			continue
		}
		pm := new(proposeMsg)
		if err := unmarshalPropose(m.Payload, pm); err != nil {
			t.Fatalf("the stand-in sent a malformed PROPOSE: %v", err)
		}
		var full []request
		if _, st := f.r.resolve(pm, &full); st != resolved {
			t.Fatalf("the stand-in's PROPOSE %d does not resolve against its own pool: %v", pm.Seq, st)
		}
		pm.Batch = full
		if !seen[pm.Seq] {
			seen[pm.Seq] = true
			out = append(out, pm)
		}
	}
	return out
}

// queuedOps is k requests from "client" with sequence numbers from 1.
func queuedOps(k int) []queuedRequest {
	reqs := make([]queuedRequest, k)
	for i := range reqs {
		reqs[i] = queuedRequest{seq: uint64(i + 1), op: []byte(fmt.Sprintf("op-%d", i))}
	}
	return reqs
}

// An idle leader pools a whole request frame before it decides to propose:
// one k-entry frame becomes one PROPOSE of k entries, each the frame's
// request. Running the proposal rule once per entry
// would send the first entry alone and hold the rest for the next instance.
func TestLeaderProposesWholeFrame(t *testing.T) {
	const k = 5
	l := newLeader(t, Config{})
	reqs := queuedOps(k)
	frame, n := encodeRequestFrame("client", reqs)
	if n != k {
		t.Fatalf("a %d-request frame took %d", k, n)
	}
	l.submit(frame)
	props := l.proposals(t)
	if len(props) != 1 {
		t.Fatalf("a %d-entry frame became %d PROPOSEs, want 1", k, len(props))
	}
	if len(props[0].Batch) != k {
		t.Fatalf("the PROPOSE carries %d entries of a %d-entry frame", len(props[0].Batch), k)
	}
	for i, e := range props[0].Batch {
		if e.ClientID != "client" || e.Seq != reqs[i].seq || !bytes.Equal(e.Op, reqs[i].op) {
			t.Fatalf("PROPOSE entry %d is (%s, %d, %q), want (client, %d, %q)", i, e.ClientID, e.Seq, e.Op, reqs[i].seq, reqs[i].op)
		}
	}
	if l.r.pooled != 0 {
		t.Fatalf("%d requests left pooled after the PROPOSE", l.r.pooled)
	}
}

// State transfer moves a leader's delivery point past the instances it
// proposed itself. Its next PROPOSE must be numbered above that point: one
// below it is dropped as stale by every replica, the leader included, and
// its requests stay in flight until a leader change.
func TestCaughtUpLeaderProposesAboveDeliveryPoint(t *testing.T) {
	l := newLeader(t, Config{})
	var entries []logEntryWire
	for seq := int64(0); seq < 5; seq++ {
		entries = append(entries, logEntryWire{Seq: seq, Batch: batchAt(seq)})
	}
	l.r.applyState(&stateReplyMsg{CheckpointSeq: -1, Entries: entries})
	if l.r.lastDelivered != 4 {
		t.Fatalf("state transfer delivered up to %d, want 4", l.r.lastDelivered)
	}

	l.submit(EncodeRequest("client", 100, []byte("after")))
	props := l.proposals(t)
	if len(props) != 1 {
		t.Fatalf("proposed %d instances, want 1", len(props))
	}
	if props[0].Seq != 5 {
		t.Fatalf("proposed instance %d after delivering up to 4, want 5", props[0].Seq)
	}
	if inst := l.r.instances[5]; inst == nil || !inst.haveProposal {
		t.Fatal("the leader did not register its own PROPOSE for instance 5")
	}

	vote := (&voteMsg{Regency: 0, Seq: 5, Digest: batchDigest(5, props[0].Batch)}).marshal()
	for _, typ := range []uint16{msgWrite, msgAccept} {
		for _, from := range []ReplicaID{1, 2} {
			l.deliver(from, typ, vote)
		}
	}
	if l.r.lastDelivered != 5 {
		t.Fatalf("instance 5 decided by a quorum but delivered only to %d", l.r.lastDelivered)
	}
	if ops := l.r.app.(*recordApp).opsFlat(); string(ops[len(ops)-1]) != "after" {
		t.Fatalf("the last executed op is %q, want \"after\"", ops[len(ops)-1])
	}
}

// refPropose is the PROPOSE a leader of regency 0 sends for seq's batch of
// reqs: every entry a reference, the digest over the full entries.
func refPropose(seq int64, reqs []request) []byte {
	return (&proposeMsg{Regency: 0, Seq: seq, Digest: batchDigest(seq, reqs), Batch: reqs}).marshalRefs()
}

// inlinePropose is the same PROPOSE with every entry inline: the leader's
// answer to a follower that asked for it.
func inlinePropose(seq int64, reqs []request) []byte {
	return (&proposeMsg{Regency: 0, Seq: seq, Digest: batchDigest(seq, reqs), Batch: reqs}).marshal()
}

// sentOf counts the stand-in's messages of one type.
func (f *standIn) sentOf(msgType uint16) int {
	n := 0
	for _, m := range f.conn.sent {
		if m.Type == msgType {
			n++
		}
	}
	return n
}

// wroteDigest reports whether the stand-in sent a WRITE for seq and digest.
func (f *standIn) wroteDigest(seq int64, digest [32]byte) bool {
	for _, m := range f.conn.sent {
		if m.Type != msgWrite {
			continue
		}
		if vm, err := unmarshalVote(m.Payload); err == nil && vm.Seq == seq && vm.Digest == digest {
			return true
		}
	}
	return false
}

// decideFor delivers WRITEs and ACCEPTs for seq and digest from replicas
// 0, 1 and 2: a quorum of each without the follower.
func (f *standIn) decideFor(seq int64, digest [32]byte) {
	vote := (&voteMsg{Regency: 0, Seq: seq, Digest: digest}).marshal()
	for _, typ := range []uint16{msgWrite, msgAccept} {
		for _, from := range []ReplicaID{0, 1, 2} {
			f.deliver(from, typ, vote)
		}
	}
}

// A client that sends op A to the leader and op B to one follower under the
// same (client, seq) makes that follower resolve the leader's reference to
// the wrong entry. The digest the PROPOSE carries exposes it: the follower
// asks the leader at once, WRITEs for A once the answer arrives, and decides
// A — no leader change and no state transfer. Without the digest check it
// would WRITE for B; asking only after a tick would leave it silent here.
func TestEquivocatingClientFollowerAsksLeaderAtOnce(t *testing.T) {
	f := newFollower(t, Config{})
	opA := request{ClientID: "client", Seq: 1, Op: []byte("op-A")}
	f.submit(EncodeRequest("client", 1, []byte("op-B")))

	f.deliver(0, msgPropose, refPropose(0, []request{opA}))
	if f.sentOf(msgProposeFetch) != 1 || f.r.Stats().ProposeFetches != 1 {
		t.Fatalf("sent %d PROPOSE fetches (ProposeFetches %d) on a digest mismatch, want 1 at once",
			f.sentOf(msgProposeFetch), f.r.Stats().ProposeFetches)
	}
	if f.sentOf(msgWrite) != 0 {
		t.Fatal("the follower WRITEs for a batch that does not hash to the leader's digest")
	}

	f.deliver(0, msgPropose, inlinePropose(0, []request{opA}))
	digestA := batchDigest(0, []request{opA})
	if !f.wroteDigest(0, digestA) {
		t.Fatal("the follower did not WRITE for the leader's batch once it arrived inline")
	}
	f.decideFor(0, digestA)
	if f.r.lastDelivered != 0 {
		t.Fatalf("instance 0 decided but delivered only to %d", f.r.lastDelivered)
	}
	if ops := f.r.app.(*recordApp).opsFlat(); len(ops) != 1 || string(ops[0]) != "op-A" {
		t.Fatalf("executed %q, want [op-A]", ops)
	}
	if f.r.fetching || f.sentOf(msgStateRequest) != 0 || f.sentOf(msgStop) != 0 || f.r.regency != 0 {
		t.Fatalf("fetching=%v stateRequests=%d stops=%d regency=%d, want no state transfer and no leader change",
			f.r.fetching, f.sentOf(msgStateRequest), f.sentOf(msgStop), f.r.regency)
	}
}

// A request the network kept from one follower leaves the leader's
// reference unresolved there. The follower parks the PROPOSE, asks the
// leader for it only once a full tick has passed since it arrived (the
// request is usually a frame behind), and then WRITEs for and decides it.
// No state transfer starts at any point.
func TestFilteredRequestIsAskedForAfterOneTick(t *testing.T) {
	f := newFollower(t, Config{})
	rq := request{ClientID: "client", Seq: 1, Op: []byte("filtered")}
	f.deliver(0, msgPropose, refPropose(0, []request{rq}))
	inst := f.r.instances[0]
	if inst == nil || inst.parked == nil || inst.haveProposal {
		t.Fatal("an unresolvable PROPOSE was not parked on its instance")
	}
	if !strings.Contains(f.r.debugState(), "parked=1") {
		t.Fatalf("the debug snapshot does not show the parked PROPOSE: %s", f.r.debugState())
	}

	f.r.askParked(inst.parkedAt.Add(tickInterval - time.Microsecond))
	if f.sentOf(msgProposeFetch) != 0 {
		t.Fatal("the follower asked the leader before a full tick had passed")
	}
	f.r.askParked(inst.parkedAt.Add(tickInterval))
	f.r.askParked(inst.parkedAt.Add(2 * tickInterval))
	if f.sentOf(msgProposeFetch) != 1 || f.r.Stats().ProposeFetches != 1 {
		t.Fatalf("sent %d PROPOSE fetches after a tick and another, want 1", f.sentOf(msgProposeFetch))
	}

	f.deliver(0, msgPropose, inlinePropose(0, []request{rq}))
	digest := batchDigest(0, []request{rq})
	if !f.wroteDigest(0, digest) || inst.parked != nil {
		t.Fatalf("after the answer: wrote=%v parked=%v", f.wroteDigest(0, digest), inst.parked != nil)
	}
	f.decideFor(0, digest)
	if f.r.lastDelivered != 0 {
		t.Fatalf("instance 0 decided but delivered only to %d", f.r.lastDelivered)
	}
	if f.r.fetching || f.sentOf(msgStateRequest) != 0 {
		t.Fatal("a parked PROPOSE started a state transfer")
	}
}

// An instance its peers decide while its PROPOSE is parked here, next in
// line, is delivered as soon as the request it names is pooled — not
// fetched by state transfer, which the frame that is already on its way
// makes a waste.
func TestDecidedWhileParkedDeliversOnArrival(t *testing.T) {
	f := newFollower(t, Config{})
	rq := request{ClientID: "client", Seq: 1, Op: []byte("late")}
	f.deliver(0, msgPropose, refPropose(0, []request{rq}))
	f.decideFor(0, batchDigest(0, []request{rq}))
	if inst := f.r.instances[0]; !inst.decided || inst.parked == nil || f.r.lastDelivered != -1 {
		t.Fatalf("decided=%v parked=%v lastDelivered=%d, want decided, parked, undelivered",
			inst.decided, inst.parked != nil, f.r.lastDelivered)
	}
	if f.r.fetching || f.sentOf(msgStateRequest) != 0 {
		t.Fatal("an instance decided while parked started a state transfer")
	}

	f.submit(EncodeRequest("client", 1, []byte("late")))
	if f.r.lastDelivered != 0 {
		t.Fatalf("the request arrived but the decided instance is delivered only to %d", f.r.lastDelivered)
	}
	if ops := f.r.app.(*recordApp).opsFlat(); len(ops) != 1 || string(ops[0]) != "late" {
		t.Fatalf("executed %q, want [late]", ops)
	}
	if f.r.fetching || f.sentOf(msgStateRequest) != 0 || f.sentOf(msgProposeFetch) != 0 {
		t.Fatalf("fetching=%v stateRequests=%d fetches=%d, want none",
			f.r.fetching, f.sentOf(msgStateRequest), f.sentOf(msgProposeFetch))
	}
}

// A PROPOSE of references far ahead of a follower — a joiner, whom clients
// do not send to yet — starts state transfer at stateGapThreshold, as an
// inline one does, before it is parked.
func TestFarAheadReferencesStartStateTransfer(t *testing.T) {
	f := newFollower(t, Config{})
	far := f.r.lastDelivered + stateGapThreshold + 1
	f.deliver(0, msgPropose, refPropose(far, []request{{ClientID: "client", Seq: 1, Op: []byte("x")}}))
	if !f.r.fetching {
		t.Fatal("a PROPOSE of references beyond the state-transfer gap did not start a state transfer")
	}
	if inst := f.r.instances[far]; inst == nil || inst.parked == nil {
		t.Fatal("a PROPOSE of references within instanceWindow was not parked")
	}
}

// inlineAnswers returns the inline PROPOSEs the stand-in sent to replica to.
func (f *standIn) inlineAnswers(t *testing.T, to ReplicaID) []*proposeMsg {
	t.Helper()
	var out []*proposeMsg
	for _, m := range f.conn.sent {
		if m.Type != msgPropose || m.To != f.addrs[to] {
			continue
		}
		pm := new(proposeMsg)
		if err := unmarshalPropose(m.Payload, pm); err != nil {
			t.Fatalf("the stand-in sent a malformed PROPOSE: %v", err)
		}
		if pm.refs == 0 {
			out = append(out, pm)
		}
	}
	return out
}

// A leader sends a follower the entries of an instance inline once, however
// often it asks, and the answer is the batch it proposed. Once a checkpoint
// has retired the instance the leader no longer holds its batch, and it
// sends nothing: an empty batch would be a different proposal.
func TestLeaderAnswersAFetchOnceWhileItHoldsTheBatch(t *testing.T) {
	l := newLeader(t, Config{CheckpointInterval: 2})
	l.submit(EncodeRequest("client", 1, []byte("asked")))
	props := l.proposals(t)
	if len(props) != 1 {
		t.Fatalf("proposed %d instances, want 1", len(props))
	}
	fetch := (&proposeFetchMsg{Regency: 0, Seq: 0}).marshal()
	l.deliver(3, msgProposeFetch, fetch)
	l.deliver(3, msgProposeFetch, fetch)
	answers := l.inlineAnswers(t, 3)
	if len(answers) != 1 {
		t.Fatalf("answered %d of two fetches from one follower, want 1", len(answers))
	}
	if a, p := answers[0], props[0].Batch[0]; a.Seq != 0 || len(a.Entries) != 1 || string(a.Entries[0].client) != p.ClientID ||
		a.Entries[0].seq != p.Seq || !bytes.Equal(a.Entries[0].op, p.Op) || a.Digest != props[0].Digest {
		t.Fatalf("the answer (seq %d, %d entries) is not the proposed batch", a.Seq, len(a.Entries))
	}

	// Instances 0 and 1 decided and delivered: the checkpoint at 1 retires both.
	decide := func(pm *proposeMsg) {
		vote := (&voteMsg{Regency: 0, Seq: pm.Seq, Digest: pm.Digest}).marshal()
		for _, typ := range []uint16{msgWrite, msgAccept} {
			for _, from := range []ReplicaID{1, 2} {
				l.deliver(from, typ, vote)
			}
		}
	}
	decide(props[0])
	l.conn.sent = nil
	l.submit(EncodeRequest("client", 2, []byte("next")))
	if props = l.proposals(t); len(props) != 1 || props[0].Seq != 1 {
		t.Fatalf("proposed %d further instances, want instance 1", len(props))
	}
	decide(props[0])
	if l.r.checkpointSeq != 1 {
		t.Fatalf("checkpoint at %d, want 1", l.r.checkpointSeq)
	}
	l.deliver(2, msgProposeFetch, fetch)
	if answers := l.inlineAnswers(t, 2); len(answers) != 0 {
		t.Fatalf("a leader whose instance a checkpoint retired answered with %d entries", len(answers[0].Entries))
	}
}

// followerRun drives a follower stand-in through consensus instances of k
// requests each, the way a saturated group does: a client frame of k
// requests is pooled per instance, the leader's PROPOSE names the requests
// by reference, and the WRITEs and ACCEPTs of the other replicas decide it.
// A checkpoint every four instances retires them for reuse. The
// application only counts what it executes.
//
// Frames are pooled one instance ahead, so the client's pool never empties
// and its window stays grown. In order, instance i proposes the requests
// of frame i, pooled before its PROPOSE arrives. Early, each frame is
// shifted half a batch back, so instance i also proposes the first half of
// frame i+1, and its PROPOSE arrives before that frame: it is parked, and
// resolved when the frame is pooled. Either way the client's requests
// execute in sequence order.
type followerRun struct {
	*standIn
	tb       testing.TB
	app      *countApp
	k        int
	early    bool
	next     int64                   // the instance step runs
	prepared int64                   // the newest instance with inputs
	in       map[int64]followerInput // inputs of the instances not yet run
}

// followerInput is what reaches the follower for one instance: a client
// frame, the leader's PROPOSE and the vote of each peer.
type followerInput struct{ frame, propose, vote []byte }

func newFollowerRun(tb testing.TB, k int, early bool) *followerRun {
	fr := &followerRun{
		standIn:  newFollower(tb, Config{BatchSize: 128, CheckpointInterval: 4, RequestTimeout: time.Hour}),
		tb:       tb,
		app:      &countApp{},
		k:        k,
		early:    early,
		prepared: -1,
		in:       make(map[int64]followerInput),
	}
	fr.r.app = fr.app
	fr.prepare(0)
	fr.r.onRequests("client", fr.in[0].frame)
	return fr
}

// prepare builds the inputs of every instance up to seq.
func (fr *followerRun) prepare(seq int64) {
	shift := 0 // how far frames run behind batches
	if fr.early {
		shift = fr.k / 2
	}
	for fr.prepared < seq {
		fr.prepared++
		base := int(fr.prepared) * fr.k // this instance proposes sequences base+1 to base+k
		queued := make([]queuedRequest, 0, fr.k)
		for rs := max(base-shift, 0) + 1; rs <= base+fr.k-shift; rs++ {
			queued = append(queued, queuedRequest{seq: uint64(rs), op: []byte("op")})
		}
		reqs := make([]request, fr.k)
		for i := range reqs {
			reqs[i] = request{ClientID: "client", Seq: uint64(base + i + 1), Op: []byte("op")}
		}
		frame, _ := encodeRequestFrame("client", queued)
		digest := batchDigest(fr.prepared, reqs)
		fr.in[fr.prepared] = followerInput{
			frame:   frame,
			propose: (&proposeMsg{Seq: fr.prepared, Digest: digest, Batch: reqs}).marshalRefs(),
			vote:    (&voteMsg{Seq: fr.prepared, Digest: digest}).marshal(),
		}
	}
}

// step runs the next instance, whose inputs and the next one's frame must
// be prepared: it pools the next instance's frame and delivers this one's
// PROPOSE (the frame first, in order), then its WRITEs and ACCEPTs, then a
// tick.
func (fr *followerRun) step() {
	seq := fr.next
	in, frame := fr.in[seq], fr.in[seq+1].frame
	delete(fr.in, seq)
	if !fr.early {
		fr.r.onRequests("client", frame)
	}
	fr.deliver(0, msgPropose, in.propose)
	if fr.early {
		if inst := fr.r.instances[seq]; inst == nil || inst.parked == nil {
			fr.tb.Fatalf("instance %d: the PROPOSE of requests not yet pooled was not parked", seq)
		}
		fr.r.onRequests("client", frame)
	}
	for _, typ := range [...]uint16{msgWrite, msgAccept} {
		for from := ReplicaID(0); from < 3; from++ {
			fr.deliver(from, typ, in.vote)
		}
	}
	fr.r.onTick()
	fr.conn.sent = fr.conn.sent[:0]
	fr.next++
}

// A follower allocates per instance, not per request: with the instances a
// checkpoint retired reused, a PROPOSE of pooled references taken through
// its WRITE and ACCEPT quorums, decided and executed costs as many bytes at
// 100 entries as at 10, and so does one parked until its requests arrive.
// What is left per instance is the follower's two votes and its share of a
// checkpoint. Bytes, not objects: a slice of 100 views is one allocation,
// as is a slice of 10.
func TestFollowerInstanceBytesIndependentOfBatch(t *testing.T) {
	const warm, runs = 16, 256
	perInstance := func(k int, early bool) float64 {
		fr := newFollowerRun(t, k, early)
		fr.prepare(warm + runs)
		for range warm {
			fr.step()
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			fr.step()
		}
		runtime.ReadMemStats(&after)
		if fr.r.lastDelivered != warm+runs-1 || fr.r.checkpointSeq != warm+runs-1 || fr.app.ops != k*(warm+runs) {
			t.Fatalf("%d-entry instances: delivered to %d, checkpointed at %d, executed %d ops; want %d, %d and %d",
				k, fr.r.lastDelivered, fr.r.checkpointSeq, fr.app.ops, warm+runs-1, warm+runs-1, k*(warm+runs))
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	for _, early := range []bool{false, true} {
		ten, hundred := perInstance(10, early), perInstance(100, early)
		if math.Abs(hundred-ten) > 256 {
			t.Errorf("a follower instance (PROPOSE parked: %v) allocates %.0f B at 100 entries and %.0f B at 10; want them within 256 B",
				early, hundred, ten)
		}
	}
}

// BenchmarkFollowerInstance is one instance of 100 pooled requests at a
// follower, from PROPOSE to execution (see followerRun).
func BenchmarkFollowerInstance(b *testing.B) {
	fr := newFollowerRun(b, 100, false)
	fr.prepare(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fr.prepared <= fr.next {
			b.StopTimer()
			fr.prepare(fr.next + 64)
			b.StartTimer()
		}
		fr.step()
	}
}
