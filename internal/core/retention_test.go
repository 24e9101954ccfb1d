package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/fabric"
)

// waitLedgerFloor polls a durable node's ledger until its retention floor
// rises to at least floor.
func waitLedgerFloor(t *testing.T, n *OrderingNode, channel string, floor uint64, within time.Duration) *fabric.Ledger {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		if led := n.Ledger(channel); led != nil && led.Floor() >= floor {
			return led
		}
		if time.Now().After(deadline) {
			var got uint64
			if led := n.Ledger(channel); led != nil {
				got = led.Floor()
			}
			t.Fatalf("node %d floor stuck at %d, want >= %d", n.ID(), got, floor)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRetentionBoundsDiskAndSeeksAnswerPruned is the cluster-level
// acceptance path: sustained traffic with retention enabled keeps the
// block stores bounded (segments actually deleted, floors rising), a
// fresh frontend's seek below the floor fails with the typed pruned
// error, and Deliver(Oldest) resumes at the cluster's floor.
func TestRetentionBoundsDiskAndSeeksAnswerPruned(t *testing.T) {
	c := testCluster(t, ClusterConfig{
		Nodes:     4,
		BlockSize: 2,
		DataDir:   t.TempDir(),
		// Decisions and blocks share the unified log, so reclamation
		// needs BOTH floors to move: small segments make whole-segment
		// pruning bite, a small batch keeps decision records under the
		// segment size, and aggressive checkpoints keep the decision
		// floor from pinning segments the retention floor has passed.
		WALSegmentBytes:    2048,
		BatchSize:          8,
		CheckpointInterval: 4,
		RetainBlocks:       6,
	})
	fe := testFrontend(t, c, "frontend-0", false)
	stream := deliverNewest(t, fe, "ch")

	const envs = 60 // 30 blocks: far past the 6-block retention window
	for i := 0; i < envs; i++ {
		if st := fe.Broadcast(mkEnvelope("ch", i, 48)); st != fabric.StatusSuccess {
			t.Fatalf("broadcast %d: %s", i, st)
		}
	}
	collectBlocks(t, stream, envs, 20*time.Second)
	for i := range c.Nodes {
		waitLedgerHeight(t, c.Nodes[i], "ch", envs/2, 10*time.Second)
		led := waitLedgerFloor(t, c.Nodes[i], "ch", 1, 10*time.Second)
		if err := led.VerifyChain(); err != nil {
			t.Fatalf("node %d retained chain: %v", i, err)
		}
	}
	// The durable footprint is bounded: far less than an unbounded chain
	// (6 retained + slack vs 30 sealed).
	bytes := c.Nodes[0].storage.BlockStoreBytes()
	if bytes > 16<<10 {
		t.Fatalf("block store holds %d bytes despite retention", bytes)
	}

	// A fresh frontend (empty retained window) must go to the nodes; a
	// seek addressing pruned blocks gets the typed error.
	fe2 := testFrontend(t, c, "frontend-1", false)
	pruned, err := fe2.Deliver("ch", fabric.DeliverFrom(0).Through(0))
	if err != nil {
		t.Fatalf("deliver: %v", err)
	}
	for b := range pruned.Blocks() {
		t.Fatalf("pruned seek delivered block %d", b.Header.Number)
	}
	perr := pruned.Err()
	var pe *fabric.PrunedError
	if !errors.As(perr, &pe) || pe.Floor == 0 {
		t.Fatalf("pruned seek ended with %v", perr)
	}
	if got := fabric.StatusOf(perr); got != fabric.StatusNotFound {
		t.Fatalf("pruned status maps to %v, want NOT_FOUND", got)
	}

	// Oldest means oldest available: the replay resumes at the floor.
	head := c.Nodes[0].Ledger("ch").Height() - 1
	oldest, err := fe2.Deliver("ch", fabric.DeliverOldest().Through(head))
	if err != nil {
		t.Fatalf("deliver oldest: %v", err)
	}
	var got []*fabric.Block
	for b := range oldest.Blocks() {
		got = append(got, b)
	}
	if err := oldest.Err(); err != nil {
		t.Fatalf("oldest replay: %v", err)
	}
	if len(got) == 0 || got[0].Header.Number == 0 {
		t.Fatalf("oldest replay started at %v", got)
	}
	if err := fabric.VerifyChain(got); err != nil {
		t.Fatalf("replayed suffix: %v", err)
	}
	if got[len(got)-1].Header.Number != head {
		t.Fatalf("replay stopped at %d, want %d", got[len(got)-1].Header.Number, head)
	}
}

// TestRestartedNodeRebasesOverClusterWidePrunedGap kills a node, lets the
// survivors order and prune far past the victim's height, and restarts
// it: the back-fill finds the bottom of its gap compacted away on every
// peer, takes the snapshot jump (rebase at the cluster's floor), and
// ends with a contiguous, verifiable chain from the floor — durably, as
// a second restart proves.
func TestRestartedNodeRebasesOverClusterWidePrunedGap(t *testing.T) {
	c := testCluster(t, ClusterConfig{
		Nodes:              4,
		BlockSize:          2,
		DataDir:            t.TempDir(),
		CheckpointInterval: 2, // aggressive checkpoints force a state-transfer jump
		WALSegmentBytes:    1024,
		BatchSize:          8,
		RetainBlocks:       4,
	})
	fe := testFrontend(t, c, "frontend-0", false)
	stream := deliverNewest(t, fe, "ch")

	next := 0
	submit := func(count int) {
		t.Helper()
		for i := 0; i < count; i++ {
			if st := fe.Broadcast(mkEnvelope("ch", next, 32)); st != fabric.StatusSuccess {
				t.Fatalf("broadcast %d: %s", next, st)
			}
			next++
		}
		collectBlocks(t, stream, count, 10*time.Second)
	}

	submit(6) // blocks 0..2
	waitLedgerHeight(t, c.Nodes[3], "ch", 3, 5*time.Second)
	c.KillNode(3)

	// Separate rounds while the victim is down: the survivors checkpoint
	// (pruning the decision log) and retention compacts their block
	// stores well past block 3 — the victim's whole gap bottom is gone.
	for round := 0; round < 12; round++ {
		submit(2) // blocks 3..26
	}
	for i := 0; i < 3; i++ {
		led := waitLedgerFloor(t, c.Nodes[i], "ch", 4, 15*time.Second)
		if led.Floor() <= 3 {
			t.Fatalf("node %d floor %d does not cover the victim's gap", i, led.Floor())
		}
	}

	if err := c.RestartNode(3); err != nil {
		t.Fatalf("restart: %v", err)
	}
	submit(4) // fresh traffic drives the state transfer and the jump

	target := uint64(next / 2)
	led := waitLedgerHeight(t, c.Nodes[3], "ch", target, 30*time.Second)
	deadline := time.Now().Add(30 * time.Second)
	for led.Floor() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("restarted node never rebased (floor 0, height %d)", led.Height())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := led.VerifyChain(); err != nil {
		t.Fatalf("rebased chain does not verify: %v", err)
	}
	if _, err := led.Block(0); !errors.Is(err, fabric.ErrPruned) {
		t.Fatalf("genesis read after rebase: %v", err)
	}

	// The jump was durable: a second restart recovers the rebased chain
	// from the manifest.
	c.KillNode(3)
	if err := c.RestartNode(3); err != nil {
		t.Fatalf("second restart: %v", err)
	}
	led = waitLedgerHeight(t, c.Nodes[3], "ch", target, 15*time.Second)
	if led.Floor() == 0 {
		t.Fatalf("rebase floor lost across restart")
	}
	if err := led.VerifyChain(); err != nil {
		t.Fatalf("chain after second restart: %v", err)
	}
}

// TestDurableBlocksCarryNodeSignatures checks the signed-historical-blocks
// path: persisted blocks keep the sealing node's signature (persist runs
// after signing, in the send drain), the signature survives a restart,
// and a verifying frontend's anchorless fetch can therefore assemble f+1
// valid signatures by merging peers' copies: on the stop block of a
// Deliver seek, on every block of FetchVerified.
func TestDurableBlocksCarryNodeSignatures(t *testing.T) {
	c := testCluster(t, ClusterConfig{
		Nodes:     4,
		BlockSize: 2,
		DataDir:   t.TempDir(),
	})
	fe := testFrontend(t, c, "frontend-0", false)
	stream := deliverNewest(t, fe, "ch")
	const envs = 12
	for i := 0; i < envs; i++ {
		if st := fe.Broadcast(mkEnvelope("ch", i, 32)); st != fabric.StatusSuccess {
			t.Fatalf("broadcast %d: %s", i, st)
		}
	}
	collectBlocks(t, stream, envs, 10*time.Second)
	led := waitLedgerHeight(t, c.Nodes[0], "ch", envs/2, 10*time.Second)

	checkSigned := func(led *fabric.Ledger, label string) {
		t.Helper()
		blocks, err := led.Range(0, led.Height())
		if err != nil {
			t.Fatalf("%s: reading ledger: %v", label, err)
		}
		for _, b := range blocks {
			if n := b.VerifySignatures(c.Registry); n < 1 {
				t.Fatalf("%s: block %d carries %d valid signatures (%d attached)",
					label, b.Header.Number, n, len(b.Signatures))
			}
		}
	}
	checkSigned(led, "live")

	// The signatures are durable: a restarted node reads them back from
	// its block store.
	c.KillNode(0)
	if err := c.RestartNode(0); err != nil {
		t.Fatalf("restart: %v", err)
	}
	led = waitLedgerHeight(t, c.Nodes[0], "ch", envs/2, 10*time.Second)
	checkSigned(led, "recovered")

	// An anchorless bounded seek from a fresh verifying frontend is
	// served by signature verification on its stop block: f+1 distinct
	// node signatures, merged across peers' durable copies, and the hash
	// links beneath it. FetchVerified, which keeps the proof, merges f+1
	// onto every block.
	const quorum = 2 // f+1 with n=4, f=1
	fe2 := testFrontend(t, c, "frontend-verify", true)
	stop := uint64(2)
	replay, err := fe2.Deliver("ch", fabric.DeliverOldest().Through(stop))
	if err != nil {
		t.Fatalf("deliver: %v", err)
	}
	var got []*fabric.Block
	for b := range replay.Blocks() {
		got = append(got, b)
	}
	if err := replay.Err(); err != nil {
		t.Fatalf("verified replay: %v", err)
	}
	if len(got) != int(stop)+1 {
		t.Fatalf("verified replay returned %d blocks", len(got))
	}
	if err := fabric.VerifyChain(got); err != nil {
		t.Fatalf("verified replay: %v", err)
	}
	if n := got[stop].VerifySignatures(c.Registry); n < quorum {
		t.Fatalf("replayed stop block carries only %d valid signatures, want f+1=%d", n, quorum)
	}
	proven, err := fe2.FetchVerified("ch", 0, stop+1)
	if err != nil {
		t.Fatalf("fetch verified: %v", err)
	}
	for _, b := range proven {
		if n := b.VerifySignatures(c.Registry); n < quorum {
			t.Fatalf("fetched block %d carries only %d valid signatures, want f+1=%d",
				b.Header.Number, n, quorum)
		}
	}
}
