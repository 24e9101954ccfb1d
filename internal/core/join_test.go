package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/cryptoutil"
	"repro/internal/fabric"
	"repro/internal/transport"
)

// TestJoinAnnounceBootstrapFromEmptyDir drives the -join flow end to end:
// a node boots from an empty data directory with the current group plus
// itself as static membership, announces itself via Join (the ordered
// ReconfigAdd path, not the cluster's admin client), and must reach the
// live watermark through verified state transfer. Backfilled blocks must
// carry the full released signature set — at least f+1 verifying
// signatures — so the joiner can serve verified fetches itself.
func TestJoinAnnounceBootstrapFromEmptyDir(t *testing.T) {
	c := testCluster(t, ClusterConfig{
		Nodes:              4,
		BlockSize:          2,
		DataDir:            t.TempDir(),
		CheckpointInterval: 2, // checkpoint (and prune) aggressively
	})
	fe := testFrontend(t, c, "frontend-0", false)
	stream := deliverNewest(t, fe, "ch1")
	next := 0
	submit := func(count int) {
		t.Helper()
		for i := 0; i < count; i++ {
			if st := fe.Broadcast(mkEnvelope("ch1", next, 32)); st != fabric.StatusSuccess {
				t.Fatalf("broadcast %d: %v", next, st)
			}
			next++
		}
		collectBlocks(t, stream, count, 15*time.Second)
	}

	// Many separate rounds: each is at least one consensus decision, so the
	// group takes several checkpoints and prunes the decision log below
	// them. The joiner then CANNOT rebuild this history by replaying
	// decisions — it must take the checkpoint jump and back-fill the blocks
	// below it over the signature-verified fetch path.
	for round := 0; round < 8; round++ {
		submit(2) // blocks 0..7
	}

	// Boot the newcomer the way cmd/ordernode -join does: fresh identity,
	// static membership = current group + self, empty data directory.
	i := len(c.replicas)
	id := consensus.ReplicaID(i)
	key, err := cryptoutil.GenerateKeyPair()
	if err != nil {
		t.Fatalf("keygen: %v", err)
	}
	c.replicas = append(c.replicas, id)
	c.keys = append(c.keys, key)
	c.Registry.Register(string(id.Addr()), key.Public())
	node, err := c.startNode(i, append(c.currentMembers(), id))
	if err != nil {
		t.Fatalf("boot joiner: %v", err)
	}
	c.Nodes = append(c.Nodes, node)
	node.Start()

	if err := node.Join(JoinOptions{Deadline: 30 * time.Second}); err != nil {
		t.Fatalf("join: %v", err)
	}
	v := node.MembershipView()
	if !containsReplica(v.Members, id) || v.Epoch == 0 {
		t.Fatalf("admitted joiner sees members %v at epoch %d", v.Members, v.Epoch)
	}

	// Live traffic pulls the joiner to the watermark; the back-fill behind
	// it runs over the signature-verified fetch path.
	submit(6) // blocks 8..10
	led := waitLedgerHeight(t, node, "ch1", uint64(next/2), 30*time.Second)
	if err := led.VerifyChain(); err != nil {
		t.Fatalf("joiner's chain: %v", err)
	}

	// The early blocks fell below every peer's pruned decision log, so the
	// joiner can only have them through the verified back-fill — and that
	// path must persist the merged released signature set: f=1 here, so at
	// least 2 verifying signatures each.
	for num := uint64(0); num < 4; num++ {
		b, err := led.Block(num)
		if err != nil {
			t.Fatalf("backfilled block %d: %v", num, err)
		}
		if got := b.VerifySignatures(c.Registry); got < 2 {
			t.Errorf("backfilled block %d carries %d verifying signatures, want >= f+1 = 2",
				num, got)
		}
	}
}

// TestJoinDeadlineReturnsTypedError: a joiner whose peers never answer must
// give up at the hard deadline with a *JoinError, not hang or return a
// generic error.
func TestJoinDeadlineReturnsTypedError(t *testing.T) {
	network := transport.NewInProcNetwork(transport.InProcConfig{})
	registry := cryptoutil.NewRegistry()
	key, err := cryptoutil.GenerateKeyPair()
	if err != nil {
		t.Fatalf("keygen: %v", err)
	}
	self := consensus.ReplicaID(3)
	registry.Register(string(self.Addr()), key.Public())
	conn, err := network.Join(self.Addr())
	if err != nil {
		t.Fatalf("network join: %v", err)
	}
	// Peers 0..2 exist only in the static config; nothing answers.
	node, err := NewNode(NodeConfig{
		Consensus: consensus.Config{
			SelfID:   self,
			Replicas: []consensus.ReplicaID{0, 1, 2, self},
			Key:      key,
			Registry: registry,
		},
		BlockSize: 2,
		Key:       key,
	}, conn)
	if err != nil {
		t.Fatalf("new node: %v", err)
	}
	node.Start()
	defer node.Stop()

	start := time.Now()
	err = node.Join(JoinOptions{
		Deadline: 400 * time.Millisecond,
		Announce: transport.RetryPolicy{Initial: 50 * time.Millisecond, Jitter: -1},
	})
	var je *JoinError
	if !errors.As(err, &je) {
		t.Fatalf("Join = %v, want a *JoinError", err)
	}
	if je.Node != self || je.Stopped {
		t.Fatalf("JoinError = %+v, want node %d with Stopped=false", je, int(self))
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("join took %v to give up on a 400ms deadline", elapsed)
	}
}
