package core

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/cryptoutil"
	"repro/internal/fabric"
	"repro/internal/transport"
)

// fakeNodes joins the network under the ordering nodes' addresses so a test
// can hand-craft block dissemination to a frontend.
type fakeNodes struct {
	conns []transport.Conn
	keys  []*cryptoutil.KeyPair
}

func newFakeNodes(t *testing.T, net *transport.InProcNetwork, n int, registry *cryptoutil.Registry) *fakeNodes {
	t.Helper()
	fn := &fakeNodes{}
	for i := 0; i < n; i++ {
		id := consensus.ReplicaID(i)
		conn, err := net.Join(id.Addr())
		if err != nil {
			t.Fatalf("join fake node %d: %v", i, err)
		}
		key, err := cryptoutil.GenerateKeyPair()
		if err != nil {
			t.Fatalf("keygen: %v", err)
		}
		if registry != nil {
			registry.Register(string(id.Addr()), key.Public())
		}
		fn.conns = append(fn.conns, conn)
		fn.keys = append(fn.keys, key)
	}
	return fn
}

// send disseminates a signed copy of the block from node idx.
func (fn *fakeNodes) send(t *testing.T, idx int, channel string, block *fabric.Block, frontend transport.Addr) {
	t.Helper()
	sig, err := fn.keys[idx].SignDigest(block.Header.Hash())
	if err != nil {
		t.Fatalf("sign: %v", err)
	}
	copyBlock := &fabric.Block{
		Header:    block.Header,
		Envelopes: block.Envelopes,
		Signatures: []fabric.BlockSignature{{
			SignerID:  string(consensus.ReplicaID(idx).Addr()),
			Signature: sig,
		}},
	}
	fn.conns[idx].Send(frontend, MsgBlock, marshalBlockMsg(channel, copyBlock))
}

func feEnv(i int) []byte {
	return (&fabric.Envelope{ChannelID: "ch", ClientID: "c", TimestampUnixNano: int64(i)}).Marshal()
}

func awaitBlock(t *testing.T, stream <-chan *fabric.Block, within time.Duration) *fabric.Block {
	t.Helper()
	select {
	case b := <-stream:
		return b
	case <-time.After(within):
		t.Fatal("timed out waiting for block release")
		return nil
	}
}

func expectNoBlock(t *testing.T, stream <-chan *fabric.Block, within time.Duration) {
	t.Helper()
	select {
	case b := <-stream:
		t.Fatalf("unexpected release of block %d", b.Header.Number)
	case <-time.After(within):
	}
}

func TestFrontendReleasesAtTwoFPlusOne(t *testing.T) {
	net := transport.NewInProcNetwork(transport.InProcConfig{})
	defer net.Close()
	nodes := newFakeNodes(t, net, 4, nil)
	fe, err := NewFrontend(FrontendConfig{
		ID:       "fe",
		Replicas: ids4(),
	}, net)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	defer fe.Close()
	stream := deliverNewest(t, fe, "ch")

	block := fabric.NewBlock(0, cryptoutil.Digest{}, [][]byte{feEnv(0)})
	nodes.send(t, 0, "ch", block, "fe")
	nodes.send(t, 1, "ch", block, "fe")
	expectNoBlock(t, stream, 100*time.Millisecond) // 2 < 2f+1 = 3

	nodes.send(t, 2, "ch", block, "fe")
	got := awaitBlock(t, stream, 5*time.Second)
	if got.Header.Number != 0 {
		t.Fatalf("released block %d", got.Header.Number)
	}
	// Signatures from all three copies are accumulated.
	if len(got.Signatures) != 3 {
		t.Fatalf("released block carries %d signatures, want 3", len(got.Signatures))
	}
	// A duplicate copy from the same node must not double-release.
	nodes.send(t, 0, "ch", block, "fe")
	expectNoBlock(t, stream, 100*time.Millisecond)
}

// TestFrontendReopensUnderSameID: Close gives back both of the frontend's
// endpoints, its own and its consensus client's, so a frontend restarted
// in the same process can take the same identity again.
func TestFrontendReopensUnderSameID(t *testing.T) {
	net := transport.NewInProcNetwork(transport.InProcConfig{})
	defer net.Close()
	cfg := FrontendConfig{ID: "fe", Replicas: ids4()}
	for round := 0; round < 2; round++ {
		fe, err := NewFrontend(cfg, net)
		if err != nil {
			t.Fatalf("frontend, round %d: %v", round, err)
		}
		fe.Close()
	}
}

func TestFrontendReordersBlocks(t *testing.T) {
	net := transport.NewInProcNetwork(transport.InProcConfig{})
	defer net.Close()
	nodes := newFakeNodes(t, net, 4, nil)
	fe, err := NewFrontend(FrontendConfig{ID: "fe", Replicas: ids4()}, net)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	defer fe.Close()
	stream := deliverNewest(t, fe, "ch")

	b0 := fabric.NewBlock(0, cryptoutil.Digest{}, [][]byte{feEnv(0)})
	b1 := fabric.NewBlock(1, b0.Header.Hash(), [][]byte{feEnv(1)})

	// Honest nodes disseminate per channel in block order; at most f may
	// reorder. A Byzantine early copy of block 1 must neither release it
	// nor make the frontend skip block 0.
	nodes.send(t, 0, "ch", b1, "fe")
	expectNoBlock(t, stream, 100*time.Millisecond)

	for i := 1; i < 4; i++ {
		nodes.send(t, i, "ch", b0, "fe")
	}
	first := awaitBlock(t, stream, 5*time.Second)
	if first.Header.Number != 0 {
		t.Fatalf("released block %d first, want 0", first.Header.Number)
	}
	// The honest copies of block 1 complete it (the early Byzantine copy
	// counts once) and it releases in order.
	nodes.send(t, 1, "ch", b1, "fe")
	nodes.send(t, 2, "ch", b1, "fe")
	second := awaitBlock(t, stream, 5*time.Second)
	if second.Header.Number != 1 {
		t.Fatalf("released block %d second, want 1", second.Header.Number)
	}
}

// TestFrontendRegistrationRaceDoesNotStall: one node registered the
// frontend a block earlier than the others, so the frontend holds a
// single copy of a block the release quorum will never send. The first
// block to release starts the cursor, and the straggler below it is
// dropped.
func TestFrontendRegistrationRaceDoesNotStall(t *testing.T) {
	net := transport.NewInProcNetwork(transport.InProcConfig{})
	defer net.Close()
	nodes := newFakeNodes(t, net, 4, nil)
	fe, err := NewFrontend(FrontendConfig{ID: "fe", Replicas: ids4()}, net)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	defer fe.Close()
	stream := deliverNewest(t, fe, "ch")

	b4 := fabric.NewBlock(4, cryptoutil.Hash([]byte("earlier chain")), [][]byte{feEnv(4)})
	b5 := fabric.NewBlock(5, b4.Header.Hash(), [][]byte{feEnv(5)})

	nodes.send(t, 3, "ch", b4, "fe") // only node 3 registered us in time for block 4
	for i := 0; i < 4; i++ {
		nodes.send(t, i, "ch", b5, "fe")
	}
	got := awaitBlock(t, stream, 5*time.Second)
	if got.Header.Number != 5 {
		t.Fatalf("delivered block %d, want 5 (block 4 is dead: max 1+0 copies)", got.Header.Number)
	}
}

// TestFrontendJoinsMidChain: a frontend subscribing after the chain has
// grown (a durable cluster restarted from disk keeps numbering where it
// left off) starts delivery at the first block a release quorum sends it,
// rather than waiting forever for a genesis that predates it.
func TestFrontendJoinsMidChain(t *testing.T) {
	net := transport.NewInProcNetwork(transport.InProcConfig{})
	defer net.Close()
	nodes := newFakeNodes(t, net, 4, nil)
	fe, err := NewFrontend(FrontendConfig{ID: "fe", Replicas: ids4()}, net)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	defer fe.Close()
	stream := deliverNewest(t, fe, "ch")

	b6 := fabric.NewBlock(6, cryptoutil.Hash([]byte("pre-subscription chain")), [][]byte{feEnv(6)})
	b7 := fabric.NewBlock(7, b6.Header.Hash(), [][]byte{feEnv(7)})
	for i := 0; i < 3; i++ {
		nodes.send(t, i, "ch", b6, "fe")
	}
	got := awaitBlock(t, stream, 5*time.Second)
	if got.Header.Number != 6 {
		t.Fatalf("mid-chain subscription delivered block %d, want 6", got.Header.Number)
	}
	for i := 0; i < 3; i++ {
		nodes.send(t, i, "ch", b7, "fe")
	}
	if got := awaitBlock(t, stream, 5*time.Second); got.Header.Number != 7 {
		t.Fatalf("follow-up block %d, want 7", got.Header.Number)
	}
}

// TestLateRegistrationResendsRecentBlocks: a memory-only node that learns
// of a frontend after it pushed a channel's blocks resends its last
// recentBlockLimit of them, oldest first, so the frontend releases them
// all from the first one it got.
func TestLateRegistrationResendsRecentBlocks(t *testing.T) {
	c := testCluster(t, ClusterConfig{Nodes: 4, BlockSize: 1})
	early := testFrontend(t, c, "early", false)
	const blocks = recentBlockLimit + 2
	for i := 0; i < blocks; i++ {
		if st := early.Broadcast(mkEnvelope("ch", i, 16)); st != fabric.StatusSuccess {
			t.Fatalf("broadcast %d: %v", i, st)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, n := range c.Nodes {
		for {
			n.mu.Lock()
			pushed := 0
			if r := n.recent["ch"]; r != nil {
				pushed = r.n
			}
			n.mu.Unlock()
			if pushed == blocks {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %d pushed %d blocks, want %d", n.ID(), pushed, blocks)
			}
			time.Sleep(time.Millisecond)
		}
	}

	late := testFrontend(t, c, "late", false)
	for late.ReleasedHeight("ch") < blocks {
		if time.Now().After(deadline) {
			t.Fatalf("late frontend released up to %d, want %d", late.ReleasedHeight("ch"), blocks)
		}
		time.Sleep(time.Millisecond)
	}
	if got := late.Stats().BlocksReleased; got != recentBlockLimit {
		t.Fatalf("late frontend released %d blocks, want the last %d", got, recentBlockLimit)
	}
}

func TestFrontendConflictingCopiesDoNotMix(t *testing.T) {
	net := transport.NewInProcNetwork(transport.InProcConfig{})
	defer net.Close()
	nodes := newFakeNodes(t, net, 4, nil)
	fe, err := NewFrontend(FrontendConfig{ID: "fe", Replicas: ids4()}, net)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	defer fe.Close()
	stream := deliverNewest(t, fe, "ch")

	honest := fabric.NewBlock(0, cryptoutil.Digest{}, [][]byte{feEnv(0)})
	forged := fabric.NewBlock(0, cryptoutil.Digest{}, [][]byte{feEnv(999)})

	// One Byzantine copy + two honest copies: the forged content must not
	// count toward the honest quorum, and 2 honest copies are not enough.
	nodes.send(t, 0, "ch", forged, "fe")
	nodes.send(t, 1, "ch", honest, "fe")
	nodes.send(t, 2, "ch", honest, "fe")
	expectNoBlock(t, stream, 100*time.Millisecond)

	nodes.send(t, 3, "ch", honest, "fe")
	got := awaitBlock(t, stream, 5*time.Second)
	env, err := fabric.UnmarshalEnvelope(got.Envelopes[0])
	if err != nil {
		t.Fatalf("envelope: %v", err)
	}
	if env.TimestampUnixNano == 999 {
		t.Fatal("forged content released")
	}
}

func TestFrontendVerifyModeNeedsValidSignatures(t *testing.T) {
	net := transport.NewInProcNetwork(transport.InProcConfig{})
	defer net.Close()
	registry := cryptoutil.NewRegistry()
	nodes := newFakeNodes(t, net, 4, registry)
	fe, err := NewFrontend(FrontendConfig{
		ID:               "fe",
		Replicas:         ids4(),
		VerifySignatures: true,
		Registry:         registry,
	}, net)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	defer fe.Close()
	stream := deliverNewest(t, fe, "ch")

	block := fabric.NewBlock(0, cryptoutil.Digest{}, [][]byte{feEnv(0)})
	// A copy with a junk signature must not count toward f+1 verified.
	junk := &fabric.Block{
		Header:    block.Header,
		Envelopes: block.Envelopes,
		Signatures: []fabric.BlockSignature{{
			SignerID:  string(consensus.ReplicaID(0).Addr()),
			Signature: []byte("junk"),
		}},
	}
	nodes.conns[0].Send("fe", MsgBlock, marshalBlockMsg("ch", junk))
	nodes.send(t, 1, "ch", block, "fe")
	expectNoBlock(t, stream, 100*time.Millisecond) // only 1 verified < f+1 = 2

	nodes.send(t, 2, "ch", block, "fe")
	got := awaitBlock(t, stream, 5*time.Second)
	if got.Header.Number != 0 {
		t.Fatalf("released block %d", got.Header.Number)
	}
}

func TestFrontendIgnoresTamperedCopies(t *testing.T) {
	net := transport.NewInProcNetwork(transport.InProcConfig{})
	defer net.Close()
	nodes := newFakeNodes(t, net, 4, nil)
	fe, err := NewFrontend(FrontendConfig{ID: "fe", Replicas: ids4()}, net)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	defer fe.Close()
	stream := deliverNewest(t, fe, "ch")

	block := fabric.NewBlock(0, cryptoutil.Digest{}, [][]byte{feEnv(0)})
	// A copy whose envelopes do not match its data hash is discarded even
	// though its header is "correct".
	tampered := &fabric.Block{
		Header:    block.Header,
		Envelopes: [][]byte{feEnv(666)},
	}
	nodes.conns[0].Send("fe", MsgBlock, marshalBlockMsg("ch", tampered))
	nodes.send(t, 1, "ch", block, "fe")
	nodes.send(t, 2, "ch", block, "fe")
	expectNoBlock(t, stream, 100*time.Millisecond) // tampered copy discarded

	nodes.send(t, 3, "ch", block, "fe")
	awaitBlock(t, stream, 5*time.Second)
}

func ids4() []consensus.ReplicaID {
	return []consensus.ReplicaID{0, 1, 2, 3}
}

// awaitReregister waits for fake node idx to receive a re-registration (a
// MsgRegister carrying a cursor) and returns its channel and cursor; the
// startup registration, which carries none, is skipped.
func (fn *fakeNodes) awaitReregister(idx int, within time.Duration) (channel string, from uint64, ok bool) {
	deadline := time.After(within)
	for {
		select {
		case m := <-fn.conns[idx].Inbox():
			if m.Type != MsgRegister {
				continue
			}
			if req, err := unmarshalFetchRequest(m.Payload); err == nil {
				return req.Channel, req.From, true
			}
		case <-deadline:
			return "", 0, false
		}
	}
}

// TestFrontendHealReregistersOnlyMissingPeers: block 1 reaches the
// frontend from nodes 0 and 1 only, while block 2 completes. The cursor
// stands at 1 for a whole heal tick, so the frontend asks exactly the nodes
// missing from block 1 to replay from there; one of them sending block 1
// again releases both.
func TestFrontendHealReregistersOnlyMissingPeers(t *testing.T) {
	net := transport.NewInProcNetwork(transport.InProcConfig{})
	defer net.Close()
	nodes := newFakeNodes(t, net, 4, nil)
	fe, err := NewFrontend(FrontendConfig{ID: "fe", Replicas: ids4()}, net)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	defer fe.Close()
	stream := deliverNewest(t, fe, "ch")

	b0 := fabric.NewBlock(0, cryptoutil.Digest{}, [][]byte{feEnv(0)})
	b1 := fabric.NewBlock(1, b0.Header.Hash(), [][]byte{feEnv(1)})
	b2 := fabric.NewBlock(2, b1.Header.Hash(), [][]byte{feEnv(2)})
	for i := 0; i < 3; i++ {
		nodes.send(t, i, "ch", b0, "fe")
	}
	awaitBlock(t, stream, 5*time.Second)
	for i := 0; i < 2; i++ {
		nodes.send(t, i, "ch", b1, "fe")
	}
	for i := 0; i < 3; i++ {
		nodes.send(t, i, "ch", b2, "fe")
	}

	for _, i := range []int{2, 3} {
		channel, from, ok := nodes.awaitReregister(i, 3*fetchWindowTimeout)
		if !ok {
			t.Fatalf("node %d, missing from the stuck block, was never asked to replay", i)
		}
		if channel != "ch" || from != 1 {
			t.Fatalf("node %d asked to replay %q from %d, want \"ch\" from 1", i, channel, from)
		}
	}
	for _, i := range []int{0, 1} {
		if channel, from, ok := nodes.awaitReregister(i, 100*time.Millisecond); ok {
			t.Fatalf("node %d, whose copy of block 1 arrived, was asked to replay %q from %d", i, channel, from)
		}
	}
	nodes.send(t, 2, "ch", b1, "fe")
	for want := uint64(1); want <= 2; want++ {
		if got := awaitBlock(t, stream, 5*time.Second); got.Header.Number != want {
			t.Fatalf("released block %d, want %d", got.Header.Number, want)
		}
	}
}

// TestFrontendHealSilentOnHealthyStream guards the fault-free path: blocks
// complete from three nodes across several heal ticks, and the fourth
// node's copies arrive late, after release. The cursor moves between every
// two ticks, and late copies are not held, so no node is asked to replay.
func TestFrontendHealSilentOnHealthyStream(t *testing.T) {
	net := transport.NewInProcNetwork(transport.InProcConfig{})
	defer net.Close()
	nodes := newFakeNodes(t, net, 4, nil)
	fe, err := NewFrontend(FrontendConfig{ID: "fe", Replicas: ids4()}, net)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	defer fe.Close()
	stream := deliverNewest(t, fe, "ch")

	prev := cryptoutil.Digest{}
	end := time.Now().Add(2*fetchWindowTimeout + fetchWindowTimeout/2)
	for num := uint64(0); time.Now().Before(end); num++ {
		b := fabric.NewBlock(num, prev, [][]byte{feEnv(int(num))})
		prev = b.Header.Hash()
		for i := 0; i < 3; i++ {
			nodes.send(t, i, "ch", b, "fe")
		}
		if got := awaitBlock(t, stream, 5*time.Second); got.Header.Number != num {
			t.Fatalf("released block %d, want %d", got.Header.Number, num)
		}
		nodes.send(t, 3, "ch", b, "fe")
		time.Sleep(50 * time.Millisecond)
	}
	for i := 0; i < 4; i++ {
		if channel, from, ok := nodes.awaitReregister(i, 100*time.Millisecond); ok {
			t.Fatalf("healthy stream asked node %d to replay %q from %d", i, channel, from)
		}
	}
}

// TestFrontendHealAfterRestartThenCrash: node 3 is killed and restarted,
// and comes back without the frontend in its live set; then node 0
// crashes. Three nodes, within f, keep ordering, but only nodes 1 and 2
// still push to the frontend, one copy short of 2f+1 on every block. The
// stuck cursor re-registers with the nodes that did not send, and node 3's
// replay and live push release every envelope.
func TestFrontendHealAfterRestartThenCrash(t *testing.T) {
	c := testCluster(t, ClusterConfig{
		Nodes:          4,
		BlockSize:      2,
		DataDir:        t.TempDir(),
		RequestTimeout: time.Second,
	})
	fe := testFrontend(t, c, "frontend-0", false)
	stream := deliverNewest(t, fe, "ch1")
	node3 := c.Replicas()[3].Addr()
	var fromNode3 atomic.Int64
	c.Network.SetFilter(func(m transport.Message) bool {
		if m.Type == MsgBlock && m.From == node3 {
			fromNode3.Add(1)
		}
		return true
	})
	broadcast := func(from, count int) {
		t.Helper()
		for i := from; i < from+count; i++ {
			if st := fe.Broadcast(mkEnvelope("ch1", i, 32)); st != fabric.StatusSuccess {
				t.Fatalf("broadcast %d: %v", i, st)
			}
		}
	}

	broadcast(0, 6) // blocks 0..2
	collectBlocks(t, stream, 6, 10*time.Second)
	waitLedgerHeight(t, c.Nodes[3], "ch1", 3, 5*time.Second)
	c.KillNode(3)
	broadcast(6, 6) // blocks 3..5, ordered by nodes 0..2
	collectBlocks(t, stream, 6, 10*time.Second)
	fromNode3.Store(0)
	if err := c.RestartNode(3); err != nil {
		t.Fatalf("restart: %v", err)
	}
	broadcast(12, 6) // blocks 6..8; node 3 catches up
	collectBlocks(t, stream, 6, 10*time.Second)
	waitLedgerHeight(t, c.Nodes[3], "ch1", 9, 15*time.Second)

	c.KillNode(0)
	broadcast(18, 6) // blocks 9..11, ordered by nodes 1..3
	released := 0
	deadline := time.After(20 * time.Second)
	for released < 6 {
		select {
		case b, ok := <-stream:
			if !ok {
				t.Fatal("stream closed")
			}
			released += len(b.Envelopes)
		case <-deadline:
			t.Fatalf("released %d of 6 envelopes after node 0 crashed; node 3 sent %d copies since its restart",
				released, fromNode3.Load())
		}
	}
}

// TestFrontendHealLostCopyWhileNodeDown is a frozen release cursor in
// miniature: with node 1 down, node 3's copy of block 1 is lost on the
// wire, so block 1 reaches the frontend from nodes 0 and 2 only. The blocks
// above it complete from 0, 2 and 3, yet nothing releases past block 1
// until a node sends it again. Within two heal ticks of the loss the stuck
// cursor has re-registered with nodes 1 and 3, and node 3's replay releases
// block 1 and everything above it.
func TestFrontendHealLostCopyWhileNodeDown(t *testing.T) {
	c := testCluster(t, ClusterConfig{Nodes: 4, BlockSize: 2, DataDir: t.TempDir()})
	fe := testFrontend(t, c, "frontend-0", false)
	stream := deliverNewest(t, fe, "ch1")
	for i := 0; i < 2; i++ {
		if st := fe.Broadcast(mkEnvelope("ch1", i, 32)); st != fabric.StatusSuccess {
			t.Fatalf("broadcast %d: %v", i, st)
		}
	}
	collectBlocks(t, stream, 2, 10*time.Second) // block 0

	c.KillNode(1)
	node3 := c.Replicas()[3].Addr()
	lost := make(chan time.Time, 1)
	var once atomic.Bool
	c.Network.SetDrop(func(m transport.Message) bool {
		if m.Type != MsgBlock || m.From != node3 || m.To != "frontend-0" {
			return false
		}
		if _, b, _, err := unmarshalBlockMsg(m.Payload); err != nil || b.Header.Number != 1 {
			return false
		}
		if !once.CompareAndSwap(false, true) {
			return false // only the live copy is lost; the replay gets through
		}
		lost <- time.Now()
		return true
	})
	for i := 2; i < 8; i++ { // blocks 1..3
		if st := fe.Broadcast(mkEnvelope("ch1", i, 32)); st != fabric.StatusSuccess {
			t.Fatalf("broadcast %d: %v", i, st)
		}
	}
	var lostAt time.Time
	select {
	case lostAt = <-lost:
	case <-time.After(10 * time.Second):
		t.Fatal("node 3 never sent its copy of block 1")
	}

	// Two ticks bound the detection; the replay itself takes milliseconds.
	deadline := time.After(time.Until(lostAt.Add(2*fetchWindowTimeout + time.Second)))
	for want := uint64(1); want <= 3; want++ {
		select {
		case b, ok := <-stream:
			if !ok {
				t.Fatal("stream closed")
			}
			if b.Header.Number != want {
				t.Fatalf("released block %d, want %d", b.Header.Number, want)
			}
		case <-deadline:
			t.Fatalf("block %d not released within two heal ticks of the lost copy (cursor %d)",
				want, fe.ReleasedHeight("ch1"))
		}
	}
}

// TestFrontendSettledCopiesChangeNothing: copies that cannot change the
// release state are dropped before their data hash is checked, and the
// reordering must not let one through. Before release, a repeat copy from a
// node (intact or corrupt) and a corrupt copy from a node that has not voted
// are no votes. After release — delivered, or released behind a missing
// block — neither a corrupt copy nor a further copy moves the accumulators
// or the released stream.
func TestFrontendSettledCopiesChangeNothing(t *testing.T) {
	net := transport.NewInProcNetwork(transport.InProcConfig{})
	defer net.Close()
	fe, err := NewFrontend(FrontendConfig{ID: "fe", Replicas: ids4()}, net)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	defer fe.Close()
	stream := deliverNewest(t, fe, "ch")
	node := func(i int) string { return string(consensus.ReplicaID(i).Addr()) }
	corrupt := func(b *fabric.Block) *fabric.Block {
		c := *b
		c.Envelopes = [][]byte{[]byte("forged")}
		return &c
	}
	// votes is the number of nodes whose copy of block number counts, per
	// header hash; state is everything a copy could move.
	votes := func(number uint64) map[cryptoutil.Digest]int {
		fe.mu.Lock()
		defer fe.mu.Unlock()
		out := make(map[cryptoutil.Digest]int)
		for d, acc := range fe.chans["ch"].collecting[number] {
			out[d] = len(acc.votes)
		}
		return out
	}
	type state struct {
		next              uint64
		collecting, ready int
		votes             map[cryptoutil.Digest]int
	}
	snapshot := func(number uint64) state {
		v := votes(number)
		fe.mu.Lock()
		defer fe.mu.Unlock()
		ch := fe.chans["ch"]
		ch.log.mu.Lock()
		defer ch.log.mu.Unlock()
		return state{next: ch.log.next, collecting: len(ch.collecting), ready: len(ch.log.pending), votes: v}
	}

	b0 := fabric.NewBlock(0, cryptoutil.Digest{}, [][]byte{feEnv(0)})
	fe.onBlockCopy(node(0), "ch", b0, 0)
	fe.onBlockCopy(node(0), "ch", b0, 0)
	fe.onBlockCopy(node(0), "ch", corrupt(b0), 0)
	fe.onBlockCopy(node(1), "ch", corrupt(b0), 0)
	fe.onBlockCopy(node(2), "ch", b0, 0)
	if got := votes(0)[b0.Header.Hash()]; got != 2 {
		t.Fatalf("block 0 holds %d votes, want 2 (nodes 0 and 2)", got)
	}
	expectNoBlock(t, stream, 50*time.Millisecond)
	fe.onBlockCopy(node(1), "ch", b0, 0)
	if got := awaitBlock(t, stream, 5*time.Second); got.Header.Number != 0 {
		t.Fatalf("released block %d, want 0", got.Header.Number)
	}

	// Block 0 delivered.
	before := snapshot(0)
	fe.onBlockCopy(node(3), "ch", corrupt(b0), 0)
	fe.onBlockCopy(node(3), "ch", b0, 0)
	fe.onBlockCopy(node(0), "ch", b0, 0)
	if after := snapshot(0); !reflect.DeepEqual(after, before) {
		t.Fatalf("copies of a delivered block moved the state from %+v to %+v", before, after)
	}

	// Block 2 released while block 1 is missing.
	b1 := fabric.NewBlock(1, b0.Header.Hash(), [][]byte{feEnv(1)})
	b2 := fabric.NewBlock(2, b1.Header.Hash(), [][]byte{feEnv(2)})
	for i := 0; i < 3; i++ {
		fe.onBlockCopy(node(i), "ch", b2, 0)
	}
	before = snapshot(2)
	if before.ready != 1 || before.votes[b2.Header.Hash()] != 3 {
		t.Fatalf("block 2 not released behind block 1: %+v", before)
	}
	fe.onBlockCopy(node(3), "ch", corrupt(b2), 0)
	fe.onBlockCopy(node(3), "ch", b2, 0)
	fe.onBlockCopy(node(1), "ch", b2, 0)
	if after := snapshot(2); !reflect.DeepEqual(after, before) {
		t.Fatalf("copies of a released block moved the state from %+v to %+v", before, after)
	}
	expectNoBlock(t, stream, 50*time.Millisecond)

	for i := 0; i < 3; i++ {
		fe.onBlockCopy(node(i), "ch", b1, 0)
	}
	for want := uint64(1); want <= 2; want++ {
		if got := awaitBlock(t, stream, 5*time.Second); got.Header.Number != want {
			t.Fatalf("released block %d, want %d", got.Header.Number, want)
		}
	}
	expectNoBlock(t, stream, 50*time.Millisecond)
}

// sendHeader disseminates a header-only copy of the block from node idx:
// its header and the node's signature, no envelopes.
func (fn *fakeNodes) sendHeader(t *testing.T, idx int, channel string, block *fabric.Block, frontend transport.Addr) {
	t.Helper()
	fn.send(t, idx, channel, &fabric.Block{Header: block.Header}, frontend)
}

// TestFrontendHeaderOnlyCopiesVote: 2f+1 header-only copies are votes, not
// a block, so they release nothing; one whole copy more, from a node that
// already voted or from the last one, releases the block with every
// signature the frontend holds.
func TestFrontendHeaderOnlyCopiesVote(t *testing.T) {
	for _, tc := range []struct {
		body, sigs int
	}{{body: 3, sigs: 4}, {body: 1, sigs: 3}} {
		t.Run(fmt.Sprintf("body-from-node-%d", tc.body), func(t *testing.T) {
			net := transport.NewInProcNetwork(transport.InProcConfig{})
			defer net.Close()
			nodes := newFakeNodes(t, net, 4, nil)
			fe, err := NewFrontend(FrontendConfig{ID: "fe", Replicas: ids4()}, net)
			if err != nil {
				t.Fatalf("frontend: %v", err)
			}
			defer fe.Close()
			stream := deliverNewest(t, fe, "ch")

			block := fabric.NewBlock(0, cryptoutil.Digest{}, [][]byte{feEnv(0), feEnv(1)})
			for i := 0; i < 3; i++ {
				nodes.sendHeader(t, i, "ch", block, "fe")
			}
			expectNoBlock(t, stream, 100*time.Millisecond)

			nodes.send(t, tc.body, "ch", block, "fe")
			got := awaitBlock(t, stream, 5*time.Second)
			if got.Header != block.Header || !reflect.DeepEqual(got.Envelopes, block.Envelopes) {
				t.Fatalf("released %+v, want block 0 with its two envelopes", got)
			}
			if len(got.Signatures) != tc.sigs {
				t.Fatalf("released block carries %d signatures, want %d", len(got.Signatures), tc.sigs)
			}
		})
	}
}

// TestFrontendCursorWaitsForAnchorBody: block 0 reaches the vote threshold
// with header-only copies, then block 1 arrives whole from three nodes.
// The cursor stands at block 0, the first block to reach the threshold, so
// nothing releases until block 0's body arrives; then blocks 0 and 1
// release in order. Anchoring at the first block released would have
// released block 1 and skipped block 0 for good.
func TestFrontendCursorWaitsForAnchorBody(t *testing.T) {
	net := transport.NewInProcNetwork(transport.InProcConfig{})
	defer net.Close()
	nodes := newFakeNodes(t, net, 4, nil)
	fe, err := NewFrontend(FrontendConfig{ID: "fe", Replicas: ids4()}, net)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	defer fe.Close()
	stream := deliverNewest(t, fe, "ch")

	b0 := fabric.NewBlock(0, cryptoutil.Digest{}, [][]byte{feEnv(0)})
	b1 := fabric.NewBlock(1, b0.Header.Hash(), [][]byte{feEnv(1)})
	for i := 0; i < 3; i++ {
		nodes.sendHeader(t, i, "ch", b0, "fe")
	}
	// The header votes arrive first: wait until they have been counted.
	deadline := time.Now().Add(5 * time.Second)
	for {
		fe.mu.Lock()
		ch := fe.chans["ch"]
		fe.mu.Unlock()
		started := false
		if ch != nil {
			_, _, started = ch.log.cursor()
		}
		if started {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("block 0's header votes never started the cursor")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 3; i++ {
		nodes.send(t, i, "ch", b1, "fe")
	}
	expectNoBlock(t, stream, 100*time.Millisecond)
	if got := fe.ReleasedHeight("ch"); got != 0 {
		t.Fatalf("cursor at %d, want 0", got)
	}

	nodes.send(t, 3, "ch", b0, "fe")
	for want := uint64(0); want <= 1; want++ {
		if got := awaitBlock(t, stream, 5*time.Second); got.Header.Number != want {
			t.Fatalf("released block %d, want %d", got.Header.Number, want)
		}
	}
}

// TestFrontendHealAsksHeaderVotersForBody: the cursor block holds 2f+1
// header-only votes and no body for a whole heal tick. The nodes that voted
// header-only are asked to replay from it too (a replay sends blocks
// whole), and one replayed copy releases the block.
func TestFrontendHealAsksHeaderVotersForBody(t *testing.T) {
	net := transport.NewInProcNetwork(transport.InProcConfig{})
	defer net.Close()
	nodes := newFakeNodes(t, net, 4, nil)
	fe, err := NewFrontend(FrontendConfig{ID: "fe", Replicas: ids4()}, net)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	defer fe.Close()
	stream := deliverNewest(t, fe, "ch")

	b0 := fabric.NewBlock(0, cryptoutil.Digest{}, [][]byte{feEnv(0)})
	for i := 0; i < 3; i++ {
		nodes.sendHeader(t, i, "ch", b0, "fe")
	}
	for i := 0; i < 4; i++ {
		channel, from, ok := nodes.awaitReregister(i, 3*fetchWindowTimeout)
		if !ok {
			t.Fatalf("node %d was never asked to replay the body-less cursor block", i)
		}
		if channel != "ch" || from != 0 {
			t.Fatalf("node %d asked to replay %q from %d, want \"ch\" from 0", i, channel, from)
		}
	}
	nodes.send(t, 0, "ch", b0, "fe")
	if got := awaitBlock(t, stream, 5*time.Second); got.Header.Number != 0 || len(got.Signatures) != 3 {
		t.Fatalf("released block %d with %d signatures, want block 0 with 3", got.Header.Number, len(got.Signatures))
	}
}

// copyKey names the copies of one block sent to one frontend.
type copyKey struct {
	to  transport.Addr
	num uint64
}

// copyTally records the MsgBlock frames the nodes put on the network: the
// senders of each whole copy, and the number of header-only ones.
type copyTally struct {
	mu     sync.Mutex
	whole  map[copyKey][]transport.Addr
	header map[copyKey]int
}

// pass is a network filter that tallies and passes every message.
func (c *copyTally) pass(m transport.Message) bool {
	if m.Type != MsgBlock {
		return true
	}
	_, b, _, err := unmarshalBlockMsg(m.Payload)
	if err != nil {
		return true
	}
	key := copyKey{to: m.To, num: b.Header.Number}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(b.Envelopes) == 0 {
		c.header[key]++
	} else {
		c.whole[key] = append(c.whole[key], m.From)
	}
	return true
}

// TestClusterSendsFPlusOneWholeCopies: in a 4-node cluster (f = 1) every
// block reaches every frontend whole from exactly f+1 nodes, the ones at
// positions b and b+1 mod 4 of the membership, and header-only from the
// other two.
func TestClusterSendsFPlusOneWholeCopies(t *testing.T) {
	const blocks = 8
	c := testCluster(t, ClusterConfig{Nodes: 4, BlockSize: 1})
	tally := &copyTally{whole: make(map[copyKey][]transport.Addr), header: make(map[copyKey]int)}
	c.Network.SetFilter(tally.pass)
	frontends := []*Frontend{testFrontend(t, c, "fe-a", false), testFrontend(t, c, "fe-b", false)}
	streams := []<-chan *fabric.Block{deliverNewest(t, frontends[0], "ch"), deliverNewest(t, frontends[1], "ch")}
	for i := 0; i < blocks; i++ {
		if st := frontends[0].Broadcast(mkEnvelope("ch", i, 16)); st != fabric.StatusSuccess {
			t.Fatalf("broadcast %d: %v", i, st)
		}
	}
	for _, stream := range streams {
		collectBlocks(t, stream, blocks, 10*time.Second)
	}
	// The slowest node's copies may still be on their way: wait for four.
	deadline := time.Now().Add(5 * time.Second)
	for _, fe := range frontends {
		to := transport.Addr(fe.ID())
		for b := uint64(0); b < blocks; b++ {
			for {
				tally.mu.Lock()
				whole := slices.Clone(tally.whole[copyKey{to, b}])
				header := tally.header[copyKey{to, b}]
				tally.mu.Unlock()
				if len(whole)+header >= 4 || time.Now().After(deadline) {
					slices.Sort(whole)
					want := []transport.Addr{c.Replicas()[b%4].Addr(), c.Replicas()[(b+1)%4].Addr()}
					slices.Sort(want)
					if !slices.Equal(whole, want) || header != 2 {
						t.Fatalf("%s got block %d whole from %v and %d header-only copies, want whole from %v and 2 header-only",
							to, b, whole, header, want)
					}
					break
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
}

// TestCrashedWholeSenderDelaysNoBlock: with node 3 crashed, the blocks it
// would send whole still reach the frontend whole from their other whole
// sender, so every block releases well within one heal tick of its
// broadcast.
func TestCrashedWholeSenderDelaysNoBlock(t *testing.T) {
	c := testCluster(t, ClusterConfig{Nodes: 4, BlockSize: 1})
	fe := testFrontend(t, c, "frontend-0", false)
	stream := deliverNewest(t, fe, "ch")
	c.KillNode(3)
	for i := 0; i < 8; i++ {
		start := time.Now()
		if st := fe.Broadcast(mkEnvelope("ch", i, 16)); st != fabric.StatusSuccess {
			t.Fatalf("broadcast %d: %v", i, st)
		}
		b := awaitBlock(t, stream, fetchWindowTimeout)
		if b.Header.Number != uint64(i) {
			t.Fatalf("released block %d, want %d", b.Header.Number, i)
		}
		if took := time.Since(start); took >= fetchWindowTimeout {
			t.Fatalf("block %d took %v to release, want under %v", i, took, fetchWindowTimeout)
		}
	}
}
