package core

import (
	"os"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/transport"
)

// flipByteAt XORs one bit at off in path — at-rest corruption injected
// underneath the storage stack, the way media rots.
func flipByteAt(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatalf("read: %v", err)
	}
	b[0] ^= 0x01
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatalf("write: %v", err)
	}
}

// TestScrubSelfHealsFromPeers is the end-to-end self-healing path: a
// durable block record on one node is silently corrupted at rest, a
// triggered scrub detects it through the CRC read path, fetches the block
// from peers under the f+1 verified-signature rule, rewrites the damaged
// segment, and the node's durable copy converges back to the canonical
// chain.
func TestScrubSelfHealsFromPeers(t *testing.T) {
	c := testCluster(t, ClusterConfig{Nodes: 4, BlockSize: 2, DataDir: t.TempDir()})
	fe := testFrontend(t, c, "frontend-0", false)
	stream := deliverNewest(t, fe, "ch1")

	const envs = 10
	for i := 0; i < envs; i++ {
		if st := fe.Broadcast(mkEnvelope("ch1", i, 64)); st != fabric.StatusSuccess {
			t.Fatalf("broadcast %d: %v", i, st)
		}
	}
	blocks := collectBlocks(t, stream, envs, 10*time.Second)
	if len(blocks) < 3 {
		t.Fatalf("only %d blocks delivered", len(blocks))
	}

	// Wait until the victim has durably persisted the block we will rot.
	victim := c.Nodes[2]
	deadline := time.Now().Add(10 * time.Second)
	for victim.PersistWatermark("ch1") < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("node 2 watermark stuck at %d", victim.PersistWatermark("ch1"))
		}
		time.Sleep(20 * time.Millisecond)
	}

	path, off, length, err := victim.BlockSpan("ch1", 1)
	if err != nil {
		t.Fatalf("block span: %v", err)
	}
	flipByteAt(t, path, off+length-1)
	if _, err := victim.DurableBlock("ch1", 1); err == nil {
		t.Fatal("durable read of the rotted record succeeded; corruption did not land")
	}

	victim.TriggerScrub()
	deadline = time.Now().Add(15 * time.Second)
	for {
		b, err := victim.DurableBlock("ch1", 1)
		if err == nil {
			if b.Header.Hash() != blocks[1].Header.Hash() {
				t.Fatalf("healed block diverges from the delivered chain")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("block never self-healed: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// The repair lands mid-pass; the pass's result is published when the
	// pass completes.
	for {
		last := victim.LastScrub()
		if len(last.Corrupt) > 0 && len(last.Repaired) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("scrub result %+v recorded no detection/repair", last)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestScrubRepairAnchoredWithoutRegistry covers the registry-less repair
// path multi-process deployments use (cmd/ordernode distributes no
// verification keys, so Consensus.Registry is nil): after a restart the
// ledger's in-memory window is empty, so a block rotted on disk post-boot
// cannot be served from memory — the scrubber must fetch it from a peer
// and authenticate the copy by hash-anchoring into the intact successor
// record instead of f+1 signatures.
func TestScrubRepairAnchoredWithoutRegistry(t *testing.T) {
	c := testCluster(t, ClusterConfig{Nodes: 4, BlockSize: 2, DataDir: t.TempDir()})
	fe := testFrontend(t, c, "frontend-0", false)
	stream := deliverNewest(t, fe, "ch1")

	const envs = 10
	for i := 0; i < envs; i++ {
		if st := fe.Broadcast(mkEnvelope("ch1", i, 64)); st != fabric.StatusSuccess {
			t.Fatalf("broadcast %d: %v", i, st)
		}
	}
	blocks := collectBlocks(t, stream, envs, 10*time.Second)
	if len(blocks) < 3 {
		t.Fatalf("only %d blocks delivered", len(blocks))
	}

	const victimID = 2
	waitWatermark := func() {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for c.Nodes[victimID].PersistWatermark("ch1") < 3 {
			if time.Now().After(deadline) {
				t.Fatalf("node %d watermark stuck at %d", victimID,
					c.Nodes[victimID].PersistWatermark("ch1"))
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	waitWatermark()
	c.KillNode(victimID)
	if err := c.RestartNode(victimID); err != nil {
		t.Fatalf("restart node %d: %v", victimID, err)
	}
	victim := c.Nodes[victimID]
	waitWatermark()
	// Registry-less mode: repair must fall back to hash-chain anchoring.
	victim.sync.registry = nil

	path, off, length, err := victim.BlockSpan("ch1", 1)
	if err != nil {
		t.Fatalf("block span: %v", err)
	}
	flipByteAt(t, path, off+length-1)
	if _, err := victim.DurableBlock("ch1", 1); err == nil {
		t.Fatal("durable read of the rotted record succeeded; corruption did not land")
	}
	// The restarted ledger pages everything from disk (empty in-memory
	// window), so the repair can only come from a peer, anchored into the
	// successor's PrevHash.
	victim.TriggerScrub()
	deadline := time.Now().Add(15 * time.Second)
	for {
		b, err := victim.DurableBlock("ch1", 1)
		if err == nil {
			if b.Header.Hash() != blocks[1].Header.Hash() {
				t.Fatalf("healed block diverges from the delivered chain")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("block never self-healed without a registry: %v", err)
		}
		victim.TriggerScrub()
		time.Sleep(50 * time.Millisecond)
	}
}

// TestScrubRepairDisabledLeavesCorruption proves the repair path (not the
// detection path) does the healing: with every fetch response addressed
// to the victim lost on the network, the same scrub detects the rot but
// cannot repair it — no peer, no heal.
func TestScrubRepairDisabledLeavesCorruption(t *testing.T) {
	c := testCluster(t, ClusterConfig{Nodes: 4, BlockSize: 2, DataDir: t.TempDir()})
	fe := testFrontend(t, c, "frontend-0", false)
	stream := deliverNewest(t, fe, "ch1")
	for i := 0; i < 10; i++ {
		if st := fe.Broadcast(mkEnvelope("ch1", i, 64)); st != fabric.StatusSuccess {
			t.Fatalf("broadcast %d: %v", i, st)
		}
	}
	collectBlocks(t, stream, 10, 10*time.Second)

	victim := c.Nodes[1]
	deadline := time.Now().Add(10 * time.Second)
	for victim.PersistWatermark("ch1") < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("node 1 watermark stuck at %d", victim.PersistWatermark("ch1"))
		}
		time.Sleep(20 * time.Millisecond)
	}
	addr := victim.ID().Addr()
	c.Network.SetDrop(func(m transport.Message) bool {
		return m.Type == MsgFetchResponse && m.To == addr
	})
	path, off, length, err := victim.BlockSpan("ch1", 1)
	if err != nil {
		t.Fatalf("block span: %v", err)
	}
	flipByteAt(t, path, off+length-1)

	// The pass publishes its result once the repair attempt has run out of
	// peers: every request waits out its window timeout, over every pass.
	victim.TriggerScrub()
	deadline = time.Now().Add(fetchRounds * 4 * (fetchWindowTimeout + time.Second))
	for {
		last := victim.LastScrub()
		if len(last.Corrupt) > 0 {
			if len(last.Repaired) != 0 {
				t.Fatalf("scrub repaired %+v with no peer reachable", last.Repaired)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("scrub never detected the rotted record")
		}
		time.Sleep(50 * time.Millisecond)
	}
	if _, err := victim.DurableBlock("ch1", 1); err == nil {
		t.Fatal("record readable again despite no peer being reachable")
	}
}
