package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/cryptoutil"
	"repro/internal/fabric"
	"repro/internal/transport"
	"repro/internal/wire"
)

func testCluster(t *testing.T, cfg ClusterConfig) *Cluster {
	t.Helper()
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 2 * time.Second
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	t.Cleanup(c.Stop)
	return c
}

func testFrontend(t *testing.T, c *Cluster, id string, verify bool) *Frontend {
	t.Helper()
	fe, err := c.NewFrontend(id, verify)
	if err != nil {
		t.Fatalf("NewFrontend: %v", err)
	}
	t.Cleanup(fe.Close)
	return fe
}

func mkEnvelope(channel string, i, size int) *fabric.Envelope {
	payload := make([]byte, size)
	copy(payload, fmt.Sprintf("tx-%06d", i))
	return &fabric.Envelope{
		ChannelID:         channel,
		ClientID:          "test-client",
		TimestampUnixNano: int64(i),
		Payload:           payload,
	}
}

// deliverNewest subscribes to a channel's live tail (the pre-seek Deliver
// semantics) and returns the raw block channel.
func deliverNewest(t *testing.T, ord fabric.Orderer, channel string) <-chan *fabric.Block {
	t.Helper()
	stream, err := ord.Deliver(channel, fabric.DeliverNewest())
	if err != nil {
		t.Fatalf("deliver %q: %v", channel, err)
	}
	t.Cleanup(stream.Cancel)
	return stream.Blocks()
}

// collectBlocks reads blocks from a stream until want envelopes arrived.
func collectBlocks(t *testing.T, stream <-chan *fabric.Block, wantEnvs int, within time.Duration) []*fabric.Block {
	t.Helper()
	deadline := time.After(within)
	var blocks []*fabric.Block
	total := 0
	for total < wantEnvs {
		select {
		case b, ok := <-stream:
			if !ok {
				t.Fatalf("stream closed after %d/%d envelopes", total, wantEnvs)
			}
			blocks = append(blocks, b)
			total += len(b.Envelopes)
		case <-deadline:
			t.Fatalf("timed out with %d/%d envelopes", total, wantEnvs)
		}
	}
	return blocks
}

func TestOrderingServiceEndToEnd(t *testing.T) {
	c := testCluster(t, ClusterConfig{Nodes: 4, BlockSize: 5})
	fe := testFrontend(t, c, "frontend-0", false)
	stream := deliverNewest(t, fe, "ch1")

	const envs = 20
	for i := 0; i < envs; i++ {
		if st := fe.Broadcast(mkEnvelope("ch1", i, 64)); st != fabric.StatusSuccess {
			t.Fatalf("broadcast %d: %v", i, st)
		}
	}
	blocks := collectBlocks(t, stream, envs, 10*time.Second)
	if len(blocks) != envs/5 {
		t.Fatalf("got %d blocks, want %d", len(blocks), envs/5)
	}
	// The chain must verify and carry at least 2f+1 signatures per block.
	if err := fabric.VerifyChain(blocks); err != nil {
		t.Fatalf("chain: %v", err)
	}
	for _, b := range blocks {
		if len(b.Signatures) < 3 {
			t.Fatalf("block %d has %d signatures, want >= 3", b.Header.Number, len(b.Signatures))
		}
		if got := b.VerifySignatures(c.Registry); got < 3 {
			t.Fatalf("block %d: only %d signatures verify", b.Header.Number, got)
		}
	}
	// Envelopes arrive in submission order (single client, FIFO).
	idx := 0
	for _, b := range blocks {
		for _, raw := range b.Envelopes {
			env, err := fabric.UnmarshalEnvelope(raw)
			if err != nil {
				t.Fatalf("envelope: %v", err)
			}
			if env.TimestampUnixNano != int64(idx) {
				t.Fatalf("envelope %d out of order (ts %d)", idx, env.TimestampUnixNano)
			}
			idx++
		}
	}
}

func TestOrderingServiceVerifyMode(t *testing.T) {
	c := testCluster(t, ClusterConfig{Nodes: 4, BlockSize: 2})
	fe := testFrontend(t, c, "frontend-v", true) // f+1 verified signatures
	stream := deliverNewest(t, fe, "ch1")
	for i := 0; i < 6; i++ {
		if st := fe.Broadcast(mkEnvelope("ch1", i, 32)); st != fabric.StatusSuccess {
			t.Fatalf("broadcast: %v", st)
		}
	}
	blocks := collectBlocks(t, stream, 6, 10*time.Second)
	if err := fabric.VerifyChain(blocks); err != nil {
		t.Fatalf("chain: %v", err)
	}
}

func TestOrderingServiceMultiChannel(t *testing.T) {
	c := testCluster(t, ClusterConfig{Nodes: 4, BlockSize: 3})
	fe := testFrontend(t, c, "frontend-0", false)
	streamA := deliverNewest(t, fe, "alpha")
	streamB := deliverNewest(t, fe, "beta")

	for i := 0; i < 9; i++ {
		if st := fe.Broadcast(mkEnvelope("alpha", i, 16)); st != fabric.StatusSuccess {
			t.Fatalf("broadcast alpha: %v", st)
		}
		if st := fe.Broadcast(mkEnvelope("beta", 100+i, 16)); st != fabric.StatusSuccess {
			t.Fatalf("broadcast beta: %v", st)
		}
	}
	blocksA := collectBlocks(t, streamA, 9, 10*time.Second)
	blocksB := collectBlocks(t, streamB, 9, 10*time.Second)
	if err := fabric.VerifyChain(blocksA); err != nil {
		t.Fatalf("alpha chain: %v", err)
	}
	if err := fabric.VerifyChain(blocksB); err != nil {
		t.Fatalf("beta chain: %v", err)
	}
	// Channels are independent chains, both starting at block 0.
	if blocksA[0].Header.Number != 0 || blocksB[0].Header.Number != 0 {
		t.Fatal("channel chains do not start at block 0")
	}
	// No envelope leaks across channels.
	for _, b := range blocksB {
		for _, raw := range b.Envelopes {
			chanID, err := fabric.ChannelOf(raw)
			if err != nil || chanID != "beta" {
				t.Fatalf("beta block contains envelope of channel %q", chanID)
			}
		}
	}
}

func TestMultipleFrontendsSeeSameChain(t *testing.T) {
	c := testCluster(t, ClusterConfig{Nodes: 4, BlockSize: 4})
	fe1 := testFrontend(t, c, "frontend-1", false)
	fe2 := testFrontend(t, c, "frontend-2", false)
	stream1 := deliverNewest(t, fe1, "ch")
	stream2 := deliverNewest(t, fe2, "ch")

	const envs = 16
	for i := 0; i < envs; i++ {
		src := fe1
		if i%2 == 1 {
			src = fe2
		}
		if st := src.Broadcast(mkEnvelope("ch", i, 32)); st != fabric.StatusSuccess {
			t.Fatalf("broadcast: %v", st)
		}
	}
	blocks1 := collectBlocks(t, stream1, envs, 10*time.Second)
	blocks2 := collectBlocks(t, stream2, envs, 10*time.Second)
	if len(blocks1) != len(blocks2) {
		t.Fatalf("frontends saw %d vs %d blocks", len(blocks1), len(blocks2))
	}
	for i := range blocks1 {
		if blocks1[i].Header.Hash() != blocks2[i].Header.Hash() {
			t.Fatalf("block %d differs between frontends", i)
		}
	}
}

func TestOrderingSurvivesCrashFollower(t *testing.T) {
	c := testCluster(t, ClusterConfig{Nodes: 4, BlockSize: 2})
	fe := testFrontend(t, c, "frontend-0", false)
	stream := deliverNewest(t, fe, "ch")

	// Crash one non-leader node: 3 of 4 remain, quorums still form, and
	// frontends still gather 2f+1 = 3 matching copies.
	c.Nodes[2].Stop()
	c.Network.Disconnect(consensus.ReplicaID(2).Addr())

	for i := 0; i < 8; i++ {
		if st := fe.Broadcast(mkEnvelope("ch", i, 32)); st != fabric.StatusSuccess {
			t.Fatalf("broadcast: %v", st)
		}
	}
	blocks := collectBlocks(t, stream, 8, 10*time.Second)
	if err := fabric.VerifyChain(blocks); err != nil {
		t.Fatalf("chain: %v", err)
	}
}

func TestOrderingSurvivesCrashLeader(t *testing.T) {
	c := testCluster(t, ClusterConfig{
		Nodes: 4, BlockSize: 2, RequestTimeout: 500 * time.Millisecond,
	})
	fe := testFrontend(t, c, "frontend-0", false)
	stream := deliverNewest(t, fe, "ch")

	for i := 0; i < 4; i++ {
		if st := fe.Broadcast(mkEnvelope("ch", i, 32)); st != fabric.StatusSuccess {
			t.Fatalf("broadcast: %v", st)
		}
	}
	collectBlocks(t, stream, 4, 10*time.Second)

	// Crash the leader (node 0, regency 0) and keep submitting: the
	// synchronization phase elects node 1 and ordering resumes.
	c.Nodes[0].Stop()
	c.Network.Disconnect(consensus.ReplicaID(0).Addr())

	for i := 4; i < 10; i++ {
		if st := fe.Broadcast(mkEnvelope("ch", i, 32)); st != fabric.StatusSuccess {
			t.Fatalf("broadcast: %v", st)
		}
	}
	blocks := collectBlocks(t, stream, 6, 15*time.Second)
	if err := fabric.VerifyChain(blocks); err != nil {
		t.Fatalf("chain after leader change: %v", err)
	}
}

func TestOrderingByzantineLeader(t *testing.T) {
	c := testCluster(t, ClusterConfig{
		Nodes: 4, BlockSize: 2, RequestTimeout: 500 * time.Millisecond,
	})
	c.Nodes[0].Replica().SetBehavior(consensus.Behavior{Equivocate: true})

	fe := testFrontend(t, c, "frontend-0", false)
	stream := deliverNewest(t, fe, "ch")
	for i := 0; i < 6; i++ {
		if st := fe.Broadcast(mkEnvelope("ch", i, 32)); st != fabric.StatusSuccess {
			t.Fatalf("broadcast: %v", st)
		}
	}
	blocks := collectBlocks(t, stream, 6, 15*time.Second)
	if err := fabric.VerifyChain(blocks); err != nil {
		t.Fatalf("chain under equivocation: %v", err)
	}
}

// TestWheatClusterOrdering runs WHEAT's weighted quorums and requires that
// every node decided each instance it delivered: a node signs only blocks
// sealed from decided instances.
func TestWheatClusterOrdering(t *testing.T) {
	replicas := []consensus.ReplicaID{0, 1, 2, 3, 4}
	weights, err := consensus.BinaryWeights(replicas, 1, 1, []consensus.ReplicaID{0, 1})
	if err != nil {
		t.Fatalf("weights: %v", err)
	}
	c := testCluster(t, ClusterConfig{
		Nodes: 5, F: 1, BlockSize: 5, Weights: weights,
	})
	fe := testFrontend(t, c, "frontend-0", false)
	stream := deliverNewest(t, fe, "ch")
	for i := 0; i < 20; i++ {
		if st := fe.Broadcast(mkEnvelope("ch", i, 64)); st != fabric.StatusSuccess {
			t.Fatalf("broadcast: %v", st)
		}
	}
	blocks := collectBlocks(t, stream, 20, 10*time.Second)
	if err := fabric.VerifyChain(blocks); err != nil {
		t.Fatalf("wheat chain: %v", err)
	}
	for i, node := range c.Nodes {
		if s := node.Replica().Stats(); s.Decided < s.LastDelivered+1 {
			t.Fatalf("node %d delivered instances up to %d but decided %d", i, s.LastDelivered, s.Decided)
		}
	}
}

func TestBlockTimeoutCutsPartialBlocks(t *testing.T) {
	c := testCluster(t, ClusterConfig{
		Nodes: 4, BlockSize: 100, BlockTimeout: 100 * time.Millisecond,
	})
	fe := testFrontend(t, c, "frontend-0", false)
	stream := deliverNewest(t, fe, "ch")

	// Only 3 envelopes: far below the block size; the TTC path must cut.
	for i := 0; i < 3; i++ {
		if st := fe.Broadcast(mkEnvelope("ch", i, 32)); st != fabric.StatusSuccess {
			t.Fatalf("broadcast: %v", st)
		}
	}
	blocks := collectBlocks(t, stream, 3, 10*time.Second)
	if blocks[0].Header.Number != 0 {
		t.Fatalf("first block number = %d", blocks[0].Header.Number)
	}
	if err := fabric.VerifyChain(blocks); err != nil {
		t.Fatalf("chain: %v", err)
	}
}

func TestFrontendRejectsForgedBlocks(t *testing.T) {
	c := testCluster(t, ClusterConfig{Nodes: 4, BlockSize: 2})
	fe := testFrontend(t, c, "frontend-0", false)
	stream := deliverNewest(t, fe, "ch")

	// An attacker (not an ordering node) floods forged blocks; the
	// frontend must ignore them because they come from unknown senders.
	evil, err := c.Network.Join("attacker")
	if err != nil {
		t.Fatalf("join attacker: %v", err)
	}
	forged := fabric.NewBlock(0, cryptoutil.Digest{}, [][]byte{mkEnvelope("ch", 999, 8).Marshal()})
	payload := marshalBlockMsg("ch", forged)
	for i := 0; i < 10; i++ {
		evil.Send("frontend-0", MsgBlock, payload)
	}
	// A single Byzantine node (fewer than 2f+1 copies) cannot release a
	// block either: send one forged copy from node 3's address... not
	// possible via the hub (addresses are unique), so instead verify that
	// legitimate traffic still flows and the forged block never surfaced.
	for i := 0; i < 4; i++ {
		if st := fe.Broadcast(mkEnvelope("ch", i, 32)); st != fabric.StatusSuccess {
			t.Fatalf("broadcast: %v", st)
		}
	}
	blocks := collectBlocks(t, stream, 4, 10*time.Second)
	for _, b := range blocks {
		for _, raw := range b.Envelopes {
			env, err := fabric.UnmarshalEnvelope(raw)
			if err != nil {
				t.Fatalf("envelope: %v", err)
			}
			if env.TimestampUnixNano == 999 {
				t.Fatal("forged envelope delivered")
			}
		}
	}
}

func TestNodeStatsProgress(t *testing.T) {
	c := testCluster(t, ClusterConfig{Nodes: 4, BlockSize: 2})
	fe := testFrontend(t, c, "frontend-0", false)
	stream := deliverNewest(t, fe, "ch")
	for i := 0; i < 6; i++ {
		if st := fe.Broadcast(mkEnvelope("ch", i, 32)); st != fabric.StatusSuccess {
			t.Fatalf("broadcast: %v", st)
		}
	}
	collectBlocks(t, stream, 6, 10*time.Second)
	// Signing completes asynchronously on the pool; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	var s NodeStats
	for time.Now().Before(deadline) {
		s = c.Nodes[0].Stats()
		if s.BlocksSigned >= 3 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if s.EnvelopesOrdered < 6 || s.BlocksCut < 3 || s.BlocksSigned < 3 {
		t.Fatalf("node stats did not progress: %+v", s)
	}
	fs := fe.Stats()
	if fs.EnvelopesSent != 6 || fs.EnvelopesDelivered < 6 || fs.BlocksReleased < 3 {
		t.Fatalf("frontend stats did not progress: %+v", fs)
	}
	if c.Leader() == nil {
		t.Fatal("no leader reported")
	}
}

func TestSoloOrderer(t *testing.T) {
	key, err := cryptoutil.GenerateKeyPair()
	if err != nil {
		t.Fatalf("keygen: %v", err)
	}
	solo, err := NewSoloOrderer(SoloConfig{BlockSize: 3, Key: key, SigningWorkers: 2})
	if err != nil {
		t.Fatalf("NewSoloOrderer: %v", err)
	}
	defer solo.Close()

	stream := deliverNewest(t, solo, "ch")
	for i := 0; i < 9; i++ {
		if st := solo.Broadcast(mkEnvelope("ch", i, 16)); st != fabric.StatusSuccess {
			t.Fatalf("broadcast: %v", st)
		}
	}
	blocks := collectBlocks(t, stream, 9, 5*time.Second)
	if len(blocks) != 3 {
		t.Fatalf("blocks = %d, want 3", len(blocks))
	}
	if err := fabric.VerifyChain(blocks); err != nil {
		t.Fatalf("chain: %v", err)
	}
	envs, blks := solo.Stats()
	if envs != 9 || blks != 3 {
		t.Fatalf("stats = %d envs, %d blocks", envs, blks)
	}
}

func TestSoloOrdererTimeout(t *testing.T) {
	key, err := cryptoutil.GenerateKeyPair()
	if err != nil {
		t.Fatalf("keygen: %v", err)
	}
	solo, err := NewSoloOrderer(SoloConfig{
		BlockSize: 100, BlockTimeout: 50 * time.Millisecond, Key: key, SigningWorkers: 1,
	})
	if err != nil {
		t.Fatalf("NewSoloOrderer: %v", err)
	}
	defer solo.Close()
	stream := deliverNewest(t, solo, "ch")
	if st := solo.Broadcast(mkEnvelope("ch", 0, 16)); st != fabric.StatusSuccess {
		t.Fatalf("broadcast: %v", st)
	}
	collectBlocks(t, stream, 1, 5*time.Second)
}

// TestSoloOrdererProducerOutrunsSigningPool is the regression test for a
// deadlock: the orderer used to enqueue the signature while holding its
// mutex, which the signing workers need to deliver a finished block — a
// single producer that filled the pool's queue (2x the worker count) hung
// the orderer for good. One goroutine pushes many times the queue depth
// of one-envelope blocks against a deadline.
func TestSoloOrdererProducerOutrunsSigningPool(t *testing.T) {
	key, err := cryptoutil.GenerateKeyPair()
	if err != nil {
		t.Fatalf("keygen: %v", err)
	}
	const workers = 1
	const blocks = 32 * 2 * workers // 32x the signing-queue depth
	solo, err := NewSoloOrderer(SoloConfig{BlockSize: 1, Key: key, SigningWorkers: workers})
	if err != nil {
		t.Fatalf("NewSoloOrderer: %v", err)
	}
	// Not deferred: closing a deadlocked orderer hangs too, and the
	// deadline below must be what fails the test.
	stream := deliverNewest(t, solo, "ch")
	produced := make(chan fabric.BroadcastStatus, 1)
	go func() {
		for i := 0; i < blocks; i++ {
			if st := solo.Broadcast(mkEnvelope("ch", i, 16)); st != fabric.StatusSuccess {
				produced <- st
				return
			}
		}
		produced <- fabric.StatusSuccess
	}()
	select {
	case st := <-produced:
		if st != fabric.StatusSuccess {
			t.Fatalf("broadcast: %v", st)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("producer deadlocked against the signing pool")
	}
	got := collectBlocks(t, stream, blocks, 10*time.Second)
	if len(got) != blocks {
		t.Fatalf("blocks = %d, want %d", len(got), blocks)
	}
	if err := fabric.VerifyChain(got); err != nil {
		t.Fatalf("chain: %v", err)
	}
	solo.Close()
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(ClusterConfig{Nodes: 0}); err == nil {
		t.Fatal("zero nodes accepted")
	}
	key, err := cryptoutil.GenerateKeyPair()
	if err != nil {
		t.Fatalf("keygen: %v", err)
	}
	if _, err := NewNode(NodeConfig{}, nil); err == nil {
		t.Fatal("nil key accepted")
	}
	net := transport.NewInProcNetwork(transport.InProcConfig{})
	defer net.Close()
	if _, err := NewFrontend(FrontendConfig{ID: "", Replicas: []consensus.ReplicaID{0}}, net); err == nil {
		t.Fatal("empty frontend id accepted")
	}
	if _, err := NewFrontend(FrontendConfig{ID: "x"}, net); err == nil {
		t.Fatal("empty replica set accepted")
	}
	if _, err := NewFrontend(FrontendConfig{
		ID: "x", Replicas: []consensus.ReplicaID{0, 1, 2, 3}, VerifySignatures: true,
	}, net); err == nil {
		t.Fatal("verification without registry accepted")
	}
	if _, err := NewSoloOrderer(SoloConfig{}); err == nil {
		t.Fatal("solo without key accepted")
	}
	_ = key
}

// benchBlock is a signed block of n 200-byte envelopes, the lan_sat_200b
// shape at n = 100.
func benchBlock(n int) *fabric.Block {
	envs := make([][]byte, n)
	for i := range envs {
		envs[i] = mkEnvelope("bench", i, 200).Marshal()
	}
	b := fabric.NewBlock(7, cryptoutil.Digest{1}, envs)
	b.Signatures = []fabric.BlockSignature{{SignerID: "replica-0", Signature: make([]byte, 71)}}
	return b
}

// Every replica validates every request of every PROPOSE: an envelope passes
// without an allocation, whatever the length of its channel id (a copy of an
// id longer than 32 bytes would reach the heap).
func TestValidateEnvelopeOpAllocatesNothing(t *testing.T) {
	op := mkEnvelope(strings.Repeat("c", 40), 1, 200).Marshal()
	if err := validateEnvelopeOp(op); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if got := testing.AllocsPerRun(100, func() { _ = validateEnvelopeOp(op) }); got != 0 {
		t.Fatalf("validateEnvelopeOp with a 40-byte channel id: %.0f allocations, want 0", got)
	}
	if validateEnvelopeOp(op[:3]) == nil {
		t.Fatal("a truncated envelope validated")
	}
}

// A disseminated block is encoded once into one buffer and decoded into
// views of the frame: neither side's allocations grow with the block.
func TestBlockMsgAllocationBudgets(t *testing.T) {
	block := benchBlock(100)
	if got := testing.AllocsPerRun(50, func() { marshalBlockMsg("bench", block) }); got != 1 {
		t.Errorf("marshalBlockMsg: %.0f allocations, want exactly 1", got)
	}
	payload := marshalBlockMsg("bench", block)
	if got := testing.AllocsPerRun(50, func() {
		if _, _, _, err := unmarshalBlockMsg(payload); err != nil {
			t.Fatal(err)
		}
	}); got > 6 {
		t.Errorf("unmarshalBlockMsg of 100 envelopes: %.0f allocations, want <= 6", got)
	}
	channel, got, _, err := unmarshalBlockMsg(payload)
	if err != nil || channel != "bench" || got.Header != block.Header ||
		len(got.Envelopes) != 100 || !bytes.Equal(got.Envelopes[99], block.Envelopes[99]) ||
		!bytes.Equal(got.Signatures[0].Signature, block.Signatures[0].Signature) {
		t.Fatalf("round trip: %v", err)
	}
	if _, _, _, err := unmarshalBlockMsg(payload[:len(payload)-1]); err == nil {
		t.Error("a truncated block message decoded")
	}
}

func BenchmarkBlockMsgRoundTrip(b *testing.B) {
	block := benchBlock(100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := unmarshalBlockMsg(marshalBlockMsg("bench", block)); err != nil {
			b.Fatal(err)
		}
	}
}

// OpsToCut is the leader's view of the blocks in the making: how many more
// envelopes complete one once the in-flight entries executed, 0 when those
// already complete one. Each case executes ops on a fresh node (blocks of
// four), then asks with inflight entries proposed and not yet executed.
func TestOrderingNodeOpsToCut(t *testing.T) {
	ttc := func(channel string, number uint64) []byte {
		w := wire.NewWriter(8)
		w.PutUint64(number)
		return (&fabric.Envelope{ChannelID: channel, ClientID: ttcClientPrefix + "1", Payload: w.Bytes()}).Marshal()
	}
	envs := func(channel string, n int) [][]byte {
		var ops [][]byte
		for i := 0; i < n; i++ {
			ops = append(ops, mkEnvelope(channel, i, 32).Marshal())
		}
		return ops
	}
	cases := []struct {
		name     string
		executed [][]byte
		inflight int
		want     int
	}{
		{"nothing pending", nil, 0, 4},
		{"cutter pending", envs("ch1", 1), 0, 3},
		{"in-flight entries leave a block short", envs("ch1", 1), 2, 1},
		{"in-flight entries complete the block", envs("ch1", 1), 3, 0},
		{"in-flight entries run past the block", envs("ch1", 1), 6, 0},
		{"pending after a cut block", envs("ch1", 5), 0, 3},
		{"a marker cuts the pending envelopes", append(envs("ch1", 2), ttc("ch1", 0)), 0, 4},
		{"a stale marker cuts nothing", append(envs("ch1", 6), ttc("ch1", 0)), 1, 1},
		// The leader counts entries: a marker in flight counts as an envelope.
		{"a marker among the in-flight entries", envs("ch1", 2), 2, 0},
		{"the channel nearest its cut", append(envs("ch1", 1), envs("ch2", 3)...), 0, 1},
		{"in flight toward the nearest channel", append(envs("ch1", 1), envs("ch2", 3)...), 1, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net := transport.NewInProcNetwork(transport.InProcConfig{})
			t.Cleanup(func() { net.Close() })
			conn, err := net.Join(consensus.ReplicaID(0).Addr())
			if err != nil {
				t.Fatalf("join: %v", err)
			}
			n, err := NewNode(NodeConfig{
				Consensus:      consensus.Config{SelfID: 0, Replicas: []consensus.ReplicaID{0, 1, 2, 3}},
				BlockSize:      4,
				DisableSigning: true,
			}, conn)
			if err != nil {
				t.Fatalf("NewNode: %v", err)
			}
			t.Cleanup(n.Stop)
			n.Execute(0, tc.executed)
			if got := n.OpsToCut(tc.inflight); got != tc.want {
				t.Fatalf("OpsToCut(%d) = %d, want %d", tc.inflight, got, tc.want)
			}
			if allocs := testing.AllocsPerRun(100, func() { n.OpsToCut(tc.inflight) }); allocs != 0 {
				t.Fatalf("OpsToCut: %.0f allocations, want 0", allocs)
			}
		})
	}
}
