package consensus

import (
	"encoding/hex"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// goldenSnapshotReplica builds a replica whose checkpoint covers every part
// of the snapshot layout: a weighted membership at a later epoch, clients
// with and without one-seq runs above their floors (beyond 32 bits, an
// empty id), and an application snapshot. The bytes are those of the
// layout that listed each executed seq above a floor, which one-seq runs
// keep.
func goldenSnapshotReplica(t *testing.T, conn transport.Conn) *Replica {
	t.Helper()
	weights, err := BinaryWeights(ids(5), 1, 1, []ReplicaID{0, 4})
	if err != nil {
		t.Fatalf("weights: %v", err)
	}
	app := &recordApp{groups: []execGroup{
		{seq: 0, ops: [][]byte{[]byte("envelope-a"), []byte("envelope-b")}},
		{seq: 1, ops: [][]byte{}},
	}}
	r, err := NewReplica(Config{SelfID: 2, Replicas: ids(5), Weights: weights}, app, conn)
	if err != nil {
		t.Fatalf("new replica: %v", err)
	}
	r.epoch = 3
	for _, c := range []struct {
		id    string
		floor uint64
		runs  []seqRun
	}{
		{"frontend-0", 1 << 40, []seqRun{{1<<40 + 2, 1<<40 + 2}, {1<<40 + 7, 1<<40 + 7}, {1<<40 + 300, 1<<40 + 300}}},
		{"client-b", 0, nil},
		{"client-a", 17, []seqRun{{19, 19}, {100_018, 100_018}, {1 << 33, 1 << 33}}},
		{"", 5, []seqRun{{9, 9}}},
	} {
		d := clientDedup{client: c.id, floor: c.floor, runs: c.runs}
		r.clients[c.id] = &clientRecord{clientDedup: d, replicated: true}
	}
	return r
}

// goldenSnapshot is the checkpoint of goldenSnapshotReplica as the encoder
// wrote it before it sized its buffer in advance. State transfer applies a
// checkpoint once f+1 replicas sent the same bytes, so replicas running
// either encoder must agree byte for byte.
const goldenSnapshot = "" +
	"03050000000000000002000000010000000100000002000000010000000300000001" +
	"00000004000000020400000000000000000501000000000000000908636c69656e74" +
	"2d61000000000000001103000000000000001300000000000186b200000002000000" +
	"0008636c69656e742d620000000000000000000a66726f6e74656e642d3000000100" +
	"000000000300000100000000020000010000000007000001000000012c2902000000" +
	"0000000000020a656e76656c6f70652d610a656e76656c6f70652d62000000000000" +
	"000100"

func TestCheckpointSnapshotBytesAreGolden(t *testing.T) {
	r := goldenSnapshotReplica(t, &sinkConn{addr: ReplicaID(2).Addr()})
	for i := 0; i < 3; i++ { // map order must not leak into the bytes
		if got := hex.EncodeToString(r.wrapSnapshot()); got != goldenSnapshot {
			t.Fatalf("checkpoint snapshot\n got %s\nwant %s", got, goldenSnapshot)
		}
	}
	// Besides the application's snapshot: the client list and the one
	// buffer the whole checkpoint is written into.
	app := testing.AllocsPerRun(10, func() { r.app.Snapshot() })
	if got := testing.AllocsPerRun(10, func() { r.wrapSnapshot() }) - app; got > 3 {
		t.Fatalf("wrapSnapshot: %.0f allocations besides the application's, want <= 3", got)
	}
}

// A state transfer can leave a follower delivering more than the reply
// carried: an instance above the transferred entries that it had already
// decided, with its batch, delivers right after them. It is decided like any
// other, so it joins the decision log as it is delivered, and the follower
// serves it to the next state request. (This was the one path on which a
// delivery watermark separate from the logged one ran ahead without
// tentative execution: the instance stayed out of the log until the next
// decision arrived.)
func TestStateTransferSuffixJoinsDecisionLog(t *testing.T) {
	f := newFollower(t, Config{})
	// Instance 1 is decided here; instance 0's PROPOSE never arrived.
	f.propose(1)
	f.decideByPeers(1)
	if !f.r.fetching || f.r.lastDelivered != -1 {
		t.Fatalf("fetching=%v lastDelivered=%d, want a state transfer from -1", f.r.fetching, f.r.lastDelivered)
	}
	reply := (&stateReplyMsg{CheckpointSeq: -1, Entries: []logEntryWire{{Seq: 0, Batch: batchAt(0)}}}).marshal()
	f.deliver(1, msgStateReply, reply)
	f.deliver(2, msgStateReply, reply)
	if f.r.fetching || f.r.lastDelivered != 1 {
		t.Fatalf("fetching=%v lastDelivered=%d, want instance 1 delivered after the transfer", f.r.fetching, f.r.lastDelivered)
	}

	f.deliver(0, msgStateRequest, (&stateRequestMsg{FromSeq: -1}).marshal())
	last := f.conn.sent[len(f.conn.sent)-1]
	if last.Type != msgStateReply {
		t.Fatalf("answered a state request with message type %d", last.Type)
	}
	served, err := unmarshalStateReply(last.Payload)
	if err != nil {
		t.Fatalf("state reply: %v", err)
	}
	if len(served.Entries) != 2 || served.Entries[1].Seq != 1 {
		t.Fatalf("served %d entries %+v, want instances 0 and 1", len(served.Entries), served.Entries)
	}
}

// A state transfer that finds nothing to fetch must end. Here every replica
// asks at once at the same height, so no peer holds anything past it; a
// fetching leader proposes nothing, so the group orders the next requests
// only if the peers' replies end every transfer.
func TestStateTransferWithNothingToFetchEnds(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{n: 4})
	client := tc.client(t, "client-1")
	for i := 0; i < 10; i++ {
		if err := client.Invoke([]byte(fmt.Sprintf("op-%02d", i))); err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
	}
	tc.waitAllDelivered(10, 5*time.Second, nil)
	for _, r := range tc.replicas {
		r.Inspect(r.requestStateTransfer)
	}
	for i := 10; i < 20; i++ {
		if err := client.Invoke([]byte(fmt.Sprintf("op-%02d", i))); err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
	}
	tc.waitAllDelivered(20, 5*time.Second, nil)
	tc.assertSameOrder(nil)
}

// A snapshot that does not read whole changes nothing, the group included:
// one whose membership reads (epoch 7, members 0-2) but whose client table
// does not leaves a replica of members 0-3 at its own epoch and members.
func TestRefusedSnapshotKeepsTheGroup(t *testing.T) {
	r, err := NewReplica(Config{SelfID: 0, Replicas: ids(4)}, &recordApp{}, &sinkConn{addr: ReplicaID(0).Addr()})
	if err != nil {
		t.Fatal(err)
	}
	before := r.MembershipView()
	w := wire.NewWriter(0)
	w.PutUvarint(7)
	w.PutUvarint(3)
	for id := int32(0); id < 3; id++ {
		w.PutInt32(id)
		w.PutUint32(1)
	}
	w.PutUvarint(1) // one client, whose table does not read
	w.PutString("c")
	w.PutRaw([]byte{0xff})
	if _, ok := r.unwrapSnapshot(w.Bytes()); ok {
		t.Fatal("a snapshot with an undecodable client table was accepted")
	}
	after := r.MembershipView()
	if after.Epoch != before.Epoch || !slices.Equal(after.Members, before.Members) ||
		r.epoch != 0 || len(r.membership) != 4 || r.qt.f != 1 || r.cfg.F != 1 {
		t.Fatalf("a refused snapshot changed the group: epoch %d, members %v, f %d (was epoch %d, members %v)",
			after.Epoch, after.Members, r.qt.f, before.Epoch, before.Members)
	}
}
