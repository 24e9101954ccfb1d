package core

import (
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/fabric"
)

// restartWithStatic boots node i from its data directory with an explicit
// static membership — simulating an operator whose config file was never
// updated after a reconfiguration. The durable membership record must
// override it.
func restartWithStatic(c *Cluster, i int, members []consensus.ReplicaID) (*OrderingNode, error) {
	id := c.replicas[i]
	conn, err := c.Network.Join(id.Addr())
	if err != nil {
		return nil, err
	}
	node, err := NewNode(NodeConfig{
		Consensus: consensus.Config{
			SelfID:   id,
			Replicas: members,
			Key:      c.keys[i],
			Registry: c.Registry,
		},
		BlockSize: 2,
		Key:       c.keys[i],
		DataDir:   c.NodeDataDir(i),
	}, conn)
	if err != nil {
		c.Network.Disconnect(id.Addr())
		return nil, err
	}
	c.Nodes[i] = node
	node.Start()
	return node, nil
}

// waitMembers polls a node's membership view until it has want members.
func waitMembers(t *testing.T, n *OrderingNode, want int, within time.Duration) consensus.MembershipView {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		v := n.MembershipView()
		if len(v.Members) == want {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("node %d sees %d members at epoch %d, want %d",
				int(n.ID()), len(v.Members), v.Epoch, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestReconfigSurvivesCrashBeforeCheckpoint covers the first reconfig crash
// window: a node crashes after applying an ordered add but before any
// checkpoint covers the decision, and is restarted with its OLD static
// membership. The durable path (membership record + decision-log replay)
// must recover it into the new five-member group, not the stale config.
func TestReconfigSurvivesCrashBeforeCheckpoint(t *testing.T) {
	c := testCluster(t, ClusterConfig{Nodes: 4, BlockSize: 2, DataDir: t.TempDir()})
	original := append([]consensus.ReplicaID(nil), c.Replicas()...)
	fe := testFrontend(t, c, "frontend-0", false)
	stream := deliverNewest(t, fe, "ch1")
	submit := func(from, count int) {
		t.Helper()
		for i := from; i < from+count; i++ {
			if st := fe.Broadcast(mkEnvelope("ch1", i, 32)); st != fabric.StatusSuccess {
				t.Fatalf("broadcast %d: %v", i, st)
			}
		}
		collectBlocks(t, stream, count, 15*time.Second)
	}

	submit(0, 4) // blocks 0..1
	ni, err := c.AddNode()
	if err != nil {
		t.Fatalf("add node: %v", err)
	}
	peerEpoch := c.Nodes[0].MembershipView().Epoch
	if peerEpoch == 0 {
		t.Fatal("membership epoch did not advance on the ordered add")
	}

	// Crash a follower right after the apply — with the default checkpoint
	// interval no checkpoint covers the reconfig decision yet — and bring
	// it back with the pre-reconfig static membership.
	c.KillNode(3)
	node, err := restartWithStatic(c, 3, original)
	if err != nil {
		t.Fatalf("restart with stale static config: %v", err)
	}
	v := waitMembers(t, node, 5, 10*time.Second)
	if !containsReplica(v.Members, c.replicas[ni]) {
		t.Fatalf("recovered view %v does not include the added replica %d", v.Members, int(c.replicas[ni]))
	}
	if v.Epoch == 0 {
		t.Fatal("recovered membership epoch is 0; the reconfig apply was not durable")
	}

	// The recovered node participates in the five-node group.
	submit(4, 6) // blocks 2..4
	led := waitLedgerHeight(t, node, "ch1", 5, 15*time.Second)
	if err := led.VerifyChain(); err != nil {
		t.Fatalf("recovered node's chain: %v", err)
	}
}

// TestJoinerCrashMidCatchUpRejoins covers the second reconfig crash window:
// the joining node is killed while still catching up (admitted, but its
// durable chain behind the group) and restarted from its half-transferred
// data directory. It must come back inside the new group — the checkpoint
// it recovers from carries the membership epoch — and finish catching up.
func TestJoinerCrashMidCatchUpRejoins(t *testing.T) {
	c := testCluster(t, ClusterConfig{
		Nodes:              4,
		BlockSize:          2,
		DataDir:            t.TempDir(),
		CheckpointInterval: 4, // several checkpoints while the joiner is down
	})
	fe := testFrontend(t, c, "frontend-0", false)
	stream := deliverNewest(t, fe, "ch1")
	submit := func(from, count int) {
		t.Helper()
		for i := from; i < from+count; i++ {
			if st := fe.Broadcast(mkEnvelope("ch1", i, 32)); st != fabric.StatusSuccess {
				t.Fatalf("broadcast %d: %v", i, st)
			}
		}
		collectBlocks(t, stream, count, 15*time.Second)
	}

	submit(0, 12) // blocks 0..5
	ni, err := c.AddNode()
	if err != nil {
		t.Fatalf("add node: %v", err)
	}
	// Kill the joiner the moment it is admitted: its state transfer and
	// block back-fill are (at best) partially applied on disk.
	c.KillNode(ni)

	submit(12, 8) // blocks 6..9, ordered while the joiner is down

	if err := c.RestartNode(ni); err != nil {
		t.Fatalf("re-join after crash: %v", err)
	}
	v := waitMembers(t, c.Nodes[ni], 5, 10*time.Second)
	if !containsReplica(v.Members, c.replicas[ni]) {
		t.Fatalf("re-joined view %v does not include the node itself", v.Members)
	}

	// Fresh traffic drives state transfer; the re-joined node must reach
	// the full contiguous chain.
	submit(20, 6) // blocks 10..12
	led := waitLedgerHeight(t, c.Nodes[ni], "ch1", 13, 30*time.Second)
	if err := led.VerifyChain(); err != nil {
		t.Fatalf("re-joined node's chain: %v", err)
	}
}

// recoveredView constructs node i from dir with an explicit static
// membership, never starts it, and returns the membership view recovery
// alone arrived at — before any peer could teach the node anything.
func recoveredView(t *testing.T, c *Cluster, i int, dir string, members []consensus.ReplicaID) consensus.MembershipView {
	t.Helper()
	id := c.replicas[i]
	conn, err := c.Network.Join(id.Addr())
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	defer c.Network.Disconnect(id.Addr())
	node, err := NewNode(NodeConfig{
		Consensus: consensus.Config{SelfID: id, Replicas: members, Key: c.keys[i], Registry: c.Registry},
		BlockSize: 2,
		Key:       c.keys[i],
		DataDir:   dir,
	}, conn)
	if err != nil {
		t.Fatalf("recover node %d from %s: %v", i, dir, err)
	}
	defer node.Stop()
	return node.MembershipView()
}

// TestUnsafeMembershipRecoveryLosesMember is the teeth test of the durable
// membership path, with no switch in production code: the same node with
// the same stale static config is recovered from two data directories. A
// copy taken before the add — the state a node is in when the apply was
// never made durable — forgets the new member; its real directory, which
// holds the membership record and the reconfig decision, remembers it.
// What TestReconfigSurvivesCrashBeforeCheckpoint recovers is therefore
// the durable record's doing, not the static config's or luck's.
func TestUnsafeMembershipRecoveryLosesMember(t *testing.T) {
	c := testCluster(t, ClusterConfig{Nodes: 4, BlockSize: 2, DataDir: t.TempDir()})
	original := append([]consensus.ReplicaID(nil), c.Replicas()...)
	fe := testFrontend(t, c, "frontend-0", false)
	stream := deliverNewest(t, fe, "ch1")
	submit := func(from, count int) {
		t.Helper()
		for i := from; i < from+count; i++ {
			if st := fe.Broadcast(mkEnvelope("ch1", i, 32)); st != fabric.StatusSuccess {
				t.Fatalf("broadcast %d: %v", i, st)
			}
		}
		collectBlocks(t, stream, count, 15*time.Second)
	}
	submit(0, 4) // blocks 0..1

	c.KillNode(3)
	before := t.TempDir()
	if err := os.CopyFS(before, os.DirFS(c.NodeDataDir(3))); err != nil {
		t.Fatalf("copying node 3's data directory: %v", err)
	}
	if err := c.RestartNode(3); err != nil {
		t.Fatalf("restart node 3: %v", err)
	}
	ni, err := c.AddNode()
	if err != nil {
		t.Fatalf("add node: %v", err)
	}
	added := c.replicas[ni]
	waitMembers(t, c.Nodes[3], 5, 10*time.Second)
	// A block persisted after the add proves the reconfig decision before
	// it is on node 3's disk (decisions gate the blocks they seal, FIFO).
	submit(4, 2) // block 2
	waitLedgerHeight(t, c.Nodes[3], "ch1", 3, 15*time.Second)
	c.KillNode(3)

	v := recoveredView(t, c, 3, before, original)
	if containsReplica(v.Members, added) || len(v.Members) != 4 || v.Epoch != 0 {
		t.Fatalf("recovery without the durable apply kept the reconfig (members %v, epoch %d); the test has no teeth",
			v.Members, v.Epoch)
	}
	v = recoveredView(t, c, 3, c.NodeDataDir(3), original)
	if !containsReplica(v.Members, added) || len(v.Members) != 5 || v.Epoch == 0 {
		t.Fatalf("recovery from the real directory lost the reconfig (members %v, epoch %d)", v.Members, v.Epoch)
	}
}

// TestRemovedNodeCannotRejoin: a gracefully removed node's durable
// membership record no longer lists it, so a restart — even with a stale
// static config that still includes it — must fail with the removal error
// instead of rejoining the group.
func TestRemovedNodeCannotRejoin(t *testing.T) {
	c := testCluster(t, ClusterConfig{Nodes: 5, BlockSize: 2, DataDir: t.TempDir()})
	original := append([]consensus.ReplicaID(nil), c.Replicas()...)
	fe := testFrontend(t, c, "frontend-0", false)
	stream := deliverNewest(t, fe, "ch1")
	for i := 0; i < 4; i++ {
		if st := fe.Broadcast(mkEnvelope("ch1", i, 32)); st != fabric.StatusSuccess {
			t.Fatalf("broadcast %d: %v", i, st)
		}
	}
	collectBlocks(t, stream, 4, 15*time.Second)

	// Order the removal and wait until node 4 itself applied it — its own
	// durable membership record must exclude it before the crash, or the
	// restart below would test a half-applied removal.
	if err := c.Reconfigure(consensus.ReconfigOp{
		Kind: consensus.ReconfigRemove, Replica: c.replicas[4],
	}, 15*time.Second); err != nil {
		t.Fatalf("order removal: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for containsReplica(c.Nodes[4].MembershipView().Members, c.replicas[4]) {
		if time.Now().After(deadline) {
			t.Fatal("node 4 never applied its own removal")
		}
		time.Sleep(20 * time.Millisecond)
	}
	// The graceful leave: drain, stop, release the transport identity.
	if err := c.RemoveNode(4); err != nil {
		t.Fatalf("remove node 4: %v", err)
	}
	if err := c.RestartNode(4); err == nil {
		t.Fatal("cluster restarted a removed node")
	}
	_, err := restartWithStatic(c, 4, original)
	if err == nil {
		t.Fatal("a removed node rejoined with its stale static config")
	}
	if !strings.Contains(err.Error(), "no longer includes") {
		t.Fatalf("restart of removed node failed with %v, want the durable-membership removal error", err)
	}
}
