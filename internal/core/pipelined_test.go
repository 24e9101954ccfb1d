package core

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/transport"
)

// TestPipelinedDurableClusterKeepsChainAndCheckpoints runs durable nodes
// over a slow network, where the leader keeps several consensus instances
// open: blocks must still be sealed, gated on their decision's durability
// and persisted in strict sequence order — a gap-free, hash-linked chain in
// submission order, identical on every node — checkpoints must still pass
// their persist-watermark gate with decisions in flight around them, and a
// node killed afterwards must recover the whole chain from its directory.
func TestPipelinedDurableClusterKeepsChainAndCheckpoints(t *testing.T) {
	network := transport.NewInProcNetwork(transport.InProcConfig{
		Latency: transport.FixedLatency(15 * time.Millisecond),
	})
	t.Cleanup(func() { network.Close() })
	registry := obs.NewRegistry()
	c := testCluster(t, ClusterConfig{
		Nodes: 4, BlockSize: 5, BatchSize: 4, CheckpointInterval: 4,
		DataDir: t.TempDir(), Network: network, Metrics: registry,
	})
	fe := testFrontend(t, c, "frontend-0", false)
	stream := deliverNewest(t, fe, "ch1")

	// Window occupancy as an operator sees it: the leader's gauge, sampled
	// while the load runs.
	var maxOpen atomic.Int64
	stopSampling := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			select {
			case <-stopSampling:
				return
			case <-time.After(time.Millisecond):
			}
			for _, p := range registry.Family("repro_consensus_open_instances").Points {
				if open := int64(p.Value); open > maxOpen.Load() {
					maxOpen.Store(open)
				}
			}
		}
	}()

	const envs, blocksWant = 120, 24 // thirty full batches: they go at once
	for i := 0; i < envs; i++ {
		if st := fe.Broadcast(mkEnvelope("ch1", i, 64)); st != fabric.StatusSuccess {
			t.Fatalf("broadcast %d: %v", i, st)
		}
	}
	blocks := collectBlocks(t, stream, envs, 20*time.Second)
	close(stopSampling)
	<-sampled
	if got := maxOpen.Load(); got < 3 {
		t.Fatalf("repro_consensus_open_instances peaked at %d, want several instances open", got)
	}
	if latency := c.Leader().Replica().Stats().InstanceLatency; latency < 45*time.Millisecond {
		t.Fatalf("leader reports instance latency %v over three 15 ms steps", latency)
	}

	if err := fabric.VerifyChain(blocks); err != nil {
		t.Fatalf("released chain: %v", err)
	}
	next := 0
	for _, b := range blocks {
		for _, raw := range b.Envelopes {
			env, err := fabric.UnmarshalEnvelope(raw)
			if err != nil {
				t.Fatalf("envelope: %v", err)
			}
			if env.TimestampUnixNano != int64(next) {
				t.Fatalf("envelope %d delivered at position %d", env.TimestampUnixNano, next)
			}
			next++
		}
	}

	var head *fabric.Block
	for i, node := range c.Nodes {
		led := waitLedgerHeight(t, node, "ch1", blocksWant, 10*time.Second)
		if err := led.VerifyChain(); err != nil {
			t.Fatalf("node %d durable chain: %v", i, err)
		}
		last, err := led.Block(blocksWant - 1)
		if err != nil {
			t.Fatalf("node %d head: %v", i, err)
		}
		if head == nil {
			head = last
		} else if last.Header.Hash() != head.Header.Hash() {
			t.Fatalf("node %d head differs from node 0's", i)
		}
	}
	// Thirty decisions, a checkpoint every four: each save waits for the
	// blocks its decisions sealed to be durable.
	for i, node := range c.Nodes {
		deadline := time.Now().Add(10 * time.Second)
		for {
			seq, err := node.SavedCheckpointSeq()
			if err != nil {
				t.Fatalf("node %d checkpoint: %v", i, err)
			}
			if seq >= 23 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %d saved checkpoint %d, want >= 23", i, seq)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	c.KillNode(3)
	if err := c.RestartNode(3); err != nil {
		t.Fatalf("restart: %v", err)
	}
	led := waitLedgerHeight(t, c.Nodes[3], "ch1", blocksWant, 10*time.Second)
	if err := led.VerifyChain(); err != nil {
		t.Fatalf("recovered chain: %v", err)
	}
}

// TestDurableClusterTracesEveryStage checks the latency trace end to end:
// envelopes stamped with their real submission time run through a durable
// cluster, and every stage histogram of the pipeline — decide (from a
// block's first and from its last envelope), fsync, disseminate on the
// nodes, deliver and total at the frontend — must have observed spans with
// consistent quantiles. A stage with no samples means
// the trace broke somewhere between broadcast and release.
func TestDurableClusterTracesEveryStage(t *testing.T) {
	registry := obs.NewRegistry()
	c := testCluster(t, ClusterConfig{
		Nodes: 4, BlockSize: 5, DataDir: t.TempDir(), Metrics: registry,
	})
	fe := testFrontend(t, c, "frontend-0", false)
	stream := deliverNewest(t, fe, "ch1")

	const envs = 40
	for i := 0; i < envs; i++ {
		env := mkEnvelope("ch1", i, 64)
		env.TimestampUnixNano = time.Now().UnixNano()
		if st := fe.Broadcast(env); st != fabric.StatusSuccess {
			t.Fatalf("broadcast %d: %v", i, st)
		}
	}
	collectBlocks(t, stream, envs, 20*time.Second)

	for _, stage := range []string{"decide", "decide_last", "fsync", "disseminate", "deliver", "total"} {
		fam := registry.Family("repro_stage_" + stage + "_seconds")
		if fam.Count() == 0 {
			t.Errorf("stage %s observed no spans", stage)
			continue
		}
		if p50, p99 := fam.Quantile(0.50), fam.Quantile(0.99); p50 < 0 || p99 < p50 {
			t.Errorf("stage %s quantiles inconsistent: p50 %v s, p99 %v s", stage, p50, p99)
		}
	}
	// A block's last envelope was submitted after its first, and both were
	// decided at its seal.
	first, last := registry.Family("repro_stage_decide_seconds"), registry.Family("repro_stage_decide_last_seconds")
	if p50, lastP50 := first.Quantile(0.50), last.Quantile(0.50); lastP50 > p50 {
		t.Errorf("decide from the last envelope: p50 %v s, above decide's %v s", lastP50, p50)
	}
}
