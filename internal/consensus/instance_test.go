package consensus

import (
	"fmt"
	"testing"

	"repro/internal/transport"
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

// follower is replica 3 of a four-replica group, never started: the test
// goroutine delivers its messages in place of the event loop.
type follower struct {
	r     *Replica
	conn  *sinkConn
	addrs []transport.Addr
}

func newFollower(t *testing.T, cfg Config, opts ...Option) *follower {
	t.Helper()
	cfg.SelfID, cfg.Replicas = 3, ids(4)
	f := &follower{conn: &sinkConn{addr: ReplicaID(3).Addr()}}
	for _, id := range cfg.Replicas {
		f.addrs = append(f.addrs, id.Addr())
	}
	var err error
	if f.r, err = NewReplica(cfg, &recordApp{}, f.conn, opts...); err != nil {
		t.Fatalf("new replica: %v", err)
	}
	return f
}

// batchAt is the one-request batch the leader proposes for seq.
func batchAt(seq int64) [][]byte {
	return [][]byte{EncodeRequest("client", uint64(seq+1), []byte(fmt.Sprintf("op-%d", seq)))}
}

// deliver hands the follower one protocol message from a peer.
func (f *follower) deliver(from ReplicaID, msgType uint16, payload []byte) {
	f.r.dispatch(transport.Message{From: f.addrs[from], To: f.conn.addr, Type: msgType, Payload: payload})
}

func (f *follower) propose(seq int64) {
	f.deliver(0, msgPropose, (&proposeMsg{Regency: 0, Seq: seq, Batch: batchAt(seq)}).marshal())
}

// decideByPeers delivers WRITEs and then ACCEPTs for seq's batch from the
// three other replicas: a quorum of each, with or without the follower.
func (f *follower) decideByPeers(seq int64) {
	vote := (&voteMsg{Regency: 0, Seq: seq, Digest: batchDigest(seq, batchAt(seq))}).marshal()
	for _, typ := range []uint16{msgWrite, msgAccept} {
		for _, from := range []ReplicaID{0, 1, 2} {
			f.deliver(from, typ, vote)
		}
	}
}

// wrote reports whether the follower sent a WRITE for seq's batch.
func (f *follower) wrote(seq int64) bool {
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
	f := newFollower(t, Config{CheckpointInterval: 4}, WithoutClientReplies())
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
		if inst.seq != seq || inst.haveProposal || inst.decided || inst.batch != nil ||
			len(inst.writes.votes) != 0 || len(inst.accepts.votes) != 0 {
			t.Fatalf("reused instance %d kept state: %+v", seq, inst)
		}
	}
}
