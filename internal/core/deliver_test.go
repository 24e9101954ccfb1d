package core

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"weak"

	"repro/internal/cryptoutil"
	"repro/internal/fabric"
	"repro/internal/transport"
)

// collectStream reads blocks from a seekable stream until want blocks
// arrived, asserting they are consecutive starting at first.
func collectStream(t *testing.T, stream *fabric.BlockStream, first uint64, want int, within time.Duration) []*fabric.Block {
	t.Helper()
	deadline := time.After(within)
	blocks := make([]*fabric.Block, 0, want)
	for len(blocks) < want {
		select {
		case b, ok := <-stream.Blocks():
			if !ok {
				t.Fatalf("stream closed after %d/%d blocks (err %v)", len(blocks), want, stream.Err())
			}
			if got, exp := b.Header.Number, first+uint64(len(blocks)); got != exp {
				t.Fatalf("block %d delivered at position %d (want block %d): gap or duplicate", got, len(blocks), exp)
			}
			blocks = append(blocks, b)
		case <-deadline:
			t.Fatalf("timed out with %d/%d blocks", len(blocks), want)
		}
	}
	return blocks
}

// TestDeliverSeekOldestReplaysThenTails: a frontend that saw the whole
// chain serves Seek(Oldest) from its retained window, then continues with
// live blocks, in order, no gaps or duplicates.
func TestDeliverSeekOldestReplaysThenTails(t *testing.T) {
	c := testCluster(t, ClusterConfig{Nodes: 4, BlockSize: 2})
	fe := testFrontend(t, c, "frontend-0", false)
	live := deliverNewest(t, fe, "ch")

	for i := 0; i < 8; i++ {
		if st := fe.Broadcast(mkEnvelope("ch", i, 32)); st != fabric.StatusSuccess {
			t.Fatalf("broadcast: %s", st)
		}
	}
	collectBlocks(t, live, 8, 10*time.Second) // blocks 0..3 sealed

	stream, err := fe.Deliver("ch", fabric.DeliverOldest())
	if err != nil {
		t.Fatalf("deliver oldest: %v", err)
	}
	defer stream.Cancel()
	replayed := collectStream(t, stream, 0, 4, 10*time.Second)
	if err := fabric.VerifyChain(replayed); err != nil {
		t.Fatalf("replayed chain: %v", err)
	}

	// New traffic continues on the same stream with no seam.
	for i := 8; i < 12; i++ {
		if st := fe.Broadcast(mkEnvelope("ch", i, 32)); st != fabric.StatusSuccess {
			t.Fatalf("broadcast: %s", st)
		}
	}
	collectStream(t, stream, 4, 2, 10*time.Second)
}

// TestDeliverSeekSpecifiedPastHeadBlocksUntilSealed: a seek above the
// current head delivers nothing until that block exists, then starts
// exactly there.
func TestDeliverSeekSpecifiedPastHeadBlocksUntilSealed(t *testing.T) {
	c := testCluster(t, ClusterConfig{Nodes: 4, BlockSize: 2})
	fe := testFrontend(t, c, "frontend-0", false)
	live := deliverNewest(t, fe, "ch")

	for i := 0; i < 4; i++ {
		if st := fe.Broadcast(mkEnvelope("ch", i, 32)); st != fabric.StatusSuccess {
			t.Fatalf("broadcast: %s", st)
		}
	}
	collectBlocks(t, live, 4, 10*time.Second) // head is block 1

	stream, err := fe.Deliver("ch", fabric.DeliverFrom(3))
	if err != nil {
		t.Fatalf("deliver from 3: %v", err)
	}
	defer stream.Cancel()
	select {
	case b := <-stream.Blocks():
		t.Fatalf("block %d delivered before the seek position was sealed", b.Header.Number)
	case <-time.After(200 * time.Millisecond):
	}
	for i := 4; i < 10; i++ {
		if st := fe.Broadcast(mkEnvelope("ch", i, 32)); st != fabric.StatusSuccess {
			t.Fatalf("broadcast: %s", st)
		}
	}
	collectStream(t, stream, 3, 2, 10*time.Second) // 2 and below never appear
}

// TestDeliverStopPositionClosesStream: a stop position delivers through
// the stop block and then closes the stream cleanly.
func TestDeliverStopPositionClosesStream(t *testing.T) {
	c := testCluster(t, ClusterConfig{Nodes: 4, BlockSize: 2})
	fe := testFrontend(t, c, "frontend-0", false)
	live := deliverNewest(t, fe, "ch")
	for i := 0; i < 8; i++ {
		if st := fe.Broadcast(mkEnvelope("ch", i, 32)); st != fabric.StatusSuccess {
			t.Fatalf("broadcast: %s", st)
		}
	}
	collectBlocks(t, live, 8, 10*time.Second)

	stream, err := fe.Deliver("ch", fabric.DeliverOldest().Through(1))
	if err != nil {
		t.Fatalf("deliver oldest..1: %v", err)
	}
	collectStream(t, stream, 0, 2, 10*time.Second)
	select {
	case b, ok := <-stream.Blocks():
		if ok {
			t.Fatalf("block %d delivered past the stop position", b.Header.Number)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not close after the stop position")
	}
	if err := stream.Err(); err != nil {
		t.Fatalf("stopped stream ended with error: %v", err)
	}
}

// TestDeliverSeekValidation: malformed seeks and unserved channels are
// rejected with the typed errors the wire protocol maps onto statuses.
func TestDeliverSeekValidation(t *testing.T) {
	net := transport.NewInProcNetwork(transport.InProcConfig{})
	defer net.Close()
	newFakeNodes(t, net, 4, nil)
	fe, err := NewFrontend(FrontendConfig{
		ID:       "fe",
		Replicas: ids4(),
		Channels: []string{"served"},
	}, net)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	defer fe.Close()

	if _, err := fe.Deliver("served", fabric.DeliverFrom(5).Through(3)); !errors.Is(err, fabric.ErrBadSeek) {
		t.Fatalf("stop<start accepted: %v", err)
	}
	if _, err := fe.Deliver("other", fabric.DeliverNewest()); !errors.Is(err, fabric.ErrChannelNotFound) {
		t.Fatalf("unserved channel accepted: %v", err)
	}
	if st := fe.Broadcast(mkEnvelope("other", 0, 16)); st != fabric.StatusNotFound {
		t.Fatalf("broadcast to unserved channel acked %s, want NOT_FOUND", st)
	}
	if st := fe.Broadcast(nil); st != fabric.StatusBadRequest {
		t.Fatalf("nil envelope acked %s, want BAD_REQUEST", st)
	}
}

// TestBroadcastBackpressureWindow: with a full inflight window Broadcast
// answers SERVICE_UNAVAILABLE after its timeout instead of buffering, and
// the window frees once the envelopes come back in a released block.
func TestBroadcastBackpressureWindow(t *testing.T) {
	net := transport.NewInProcNetwork(transport.InProcConfig{})
	defer net.Close()
	nodes := newFakeNodes(t, net, 4, nil)
	fe, err := NewFrontend(FrontendConfig{
		ID:               "fe",
		Replicas:         ids4(),
		MaxInflight:      2,
		BroadcastTimeout: 50 * time.Millisecond,
	}, net)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	defer fe.Close()
	stream := deliverNewest(t, fe, "ch")

	envs := make([]*fabric.Envelope, 3)
	for i := range envs {
		envs[i] = mkEnvelope("ch", i, 32)
	}
	if st := fe.Broadcast(envs[0]); st != fabric.StatusSuccess {
		t.Fatalf("broadcast 0: %s", st)
	}
	if st := fe.Broadcast(envs[1]); st != fabric.StatusSuccess {
		t.Fatalf("broadcast 1: %s", st)
	}
	// No node releases anything: the window is full.
	if st := fe.Broadcast(envs[2]); st != fabric.StatusServiceUnavailable {
		t.Fatalf("broadcast with full window acked %s, want SERVICE_UNAVAILABLE", st)
	}
	// A released block carrying the two envelopes frees the window.
	block := fabric.NewBlock(0, cryptoutil.Digest{}, [][]byte{envs[0].Marshal(), envs[1].Marshal()})
	for i := 0; i < 3; i++ {
		nodes.send(t, i, "ch", block, "fe")
	}
	awaitBlock(t, stream, 5*time.Second)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := fe.Broadcast(envs[2]); st == fabric.StatusSuccess {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("window never freed after delivery")
		}
	}
}

// The backpressure window counts slots per envelope: a client that
// broadcasts the same envelope twice holds two slots until both copies come
// back, an envelope the client never broadcast frees nothing, and a
// broadcast its consensus client refused gives its slot back at once.
func TestInflightWindowSlots(t *testing.T) {
	held := func(w *inflightWindow) int { return len(w.sem) }
	t.Run("duplicate envelope holds two slots and frees both", func(t *testing.T) {
		w, env := newInflightWindow(4), mkEnvelope("ch", 0, 32).Marshal()
		for i := 0; i < 2; i++ {
			if !w.acquire(env, time.Second, nil) {
				t.Fatalf("acquire %d of a window of 4 failed", i)
			}
		}
		if held(w) != 2 {
			t.Fatalf("two broadcasts of one envelope hold %d slots, want 2", held(w))
		}
		for i := 0; i < 3; i++ { // the third release finds nothing held
			w.release(env)
		}
		if held(w) != 0 || w.active() {
			t.Fatalf("after both copies came back %d slots are held (active %v), want 0", held(w), w.active())
		}
	})
	t.Run("another client's envelope frees none", func(t *testing.T) {
		w := newInflightWindow(4)
		if !w.acquire(mkEnvelope("ch", 0, 32).Marshal(), time.Second, nil) {
			t.Fatal("acquire of an empty window failed")
		}
		w.release(mkEnvelope("ch", 1, 32).Marshal())
		if held(w) != 1 || !w.active() {
			t.Fatalf("another envelope's release left %d slots held (active %v), want 1", held(w), w.active())
		}
	})
	t.Run("failed Invoke frees its slot", func(t *testing.T) {
		net := transport.NewInProcNetwork(transport.InProcConfig{})
		defer net.Close()
		fe, err := NewFrontend(FrontendConfig{ID: "fe", Replicas: ids4(), MaxInflight: 1, BroadcastTimeout: time.Second}, net)
		if err != nil {
			t.Fatalf("frontend: %v", err)
		}
		defer fe.Close()
		fe.client.Close()
		if st := fe.BroadcastRaw(mkEnvelope("ch", 0, 32).Marshal()); st != fabric.StatusServiceUnavailable {
			t.Fatalf("a broadcast its client refused acked %s, want SERVICE_UNAVAILABLE", st)
		}
		if held(fe.inflight) != 0 || fe.inflight.active() {
			t.Fatalf("a refused broadcast left %d slots held (active %v), want 0", held(fe.inflight), fe.inflight.active())
		}
	})
}

// newSolo starts a solo orderer cutting one block per envelope.
func newSolo(t *testing.T) *SoloOrderer {
	t.Helper()
	key, err := cryptoutil.GenerateKeyPair()
	if err != nil {
		t.Fatalf("keygen: %v", err)
	}
	solo, err := NewSoloOrderer(SoloConfig{BlockSize: 1, Key: key, SigningWorkers: 2})
	if err != nil {
		t.Fatalf("solo: %v", err)
	}
	t.Cleanup(solo.Close)
	return solo
}

// soloOrder broadcasts envelope i to a solo orderer cutting one block per
// envelope, and returns block i from reader: a reader that keeps this pace
// never lags.
func soloOrder(t *testing.T, solo *SoloOrderer, reader *fabric.BlockStream, i int) *fabric.Block {
	t.Helper()
	if st := solo.Broadcast(mkEnvelope("ch", i, 16)); st != fabric.StatusSuccess {
		t.Fatalf("broadcast %d: %s", i, st)
	}
	return collectStream(t, reader, uint64(i), 1, 10*time.Second)[0]
}

// lagBlocks is more blocks than a stream's buffer and a full retained
// window (with its trimming slack) hold together: a stream that reads none
// of them has fallen below the window's floor.
const lagBlocks = 2 * DefaultHistoryLimit

// A Deliver stream whose reader never reads pins only the blocks in its
// buffer: a block that has left the channel's retained window becomes
// collectable.
func TestNeverReadStreamPinsNoBlockBeyondWindow(t *testing.T) {
	solo := newSolo(t)
	stalled, err := solo.Deliver("ch", fabric.DeliverNewest())
	if err != nil {
		t.Fatalf("deliver: %v", err)
	}
	defer stalled.Cancel()
	reader, err := solo.Deliver("ch", fabric.DeliverNewest())
	if err != nil {
		t.Fatalf("deliver: %v", err)
	}
	defer reader.Cancel()

	tracked := 4 * cap(stalled.Blocks())
	var block weak.Pointer[fabric.Block]
	for i := 0; i < lagBlocks; i++ {
		b := soloOrder(t, solo, reader, i)
		if i == tracked {
			block = weak.Make(b)
		}
	}
	runtime.GC()
	if block.Value() != nil {
		t.Fatalf("block %d, out of the window, is still reachable while a stream that read none of it is open", tracked)
	}
	if n := len(stalled.Blocks()); n != cap(stalled.Blocks()) {
		t.Fatalf("the stalled stream holds %d blocks, want its buffer's %d", n, cap(stalled.Blocks()))
	}
}

// A stream that lagged below the window of a frontend on a durable
// cluster catches up through the nodes' ledgers: it still delivers every
// block, gap-free and hash-chained.
func TestLaggingStreamCatchesUpThroughFetch(t *testing.T) {
	c := testCluster(t, ClusterConfig{Nodes: 4, BlockSize: 2, DataDir: t.TempDir()})
	fe := testFrontend(t, c, "fe-lag", false)
	stream, err := fe.Deliver("ch", fabric.DeliverFrom(0))
	if err != nil {
		t.Fatalf("deliver: %v", err)
	}
	defer stream.Cancel()
	broadcastUntilReleased(t, fe, "ch", lagBlocks)

	blocks := collectStream(t, stream, 0, lagBlocks, 60*time.Second)
	if err := fabric.VerifyChain(blocks); err != nil {
		t.Fatalf("the lagging stream's chain: %v", err)
	}
}

// On a memory-only cluster no ledger holds what fell out of the window: a
// stream that lagged below it ends with ErrBlockNotFound naming the range.
func TestLaggingStreamOnMemoryOnlyClusterEndsNotFound(t *testing.T) {
	c := testCluster(t, ClusterConfig{Nodes: 4, BlockSize: 2})
	fe := testFrontend(t, c, "fe-lag", false)
	stream, err := fe.Deliver("ch", fabric.DeliverNewest())
	if err != nil {
		t.Fatalf("deliver: %v", err)
	}
	defer stream.Cancel()
	broadcastUntilReleased(t, fe, "ch", lagBlocks)

	n := 0
	deadline := time.After(30 * time.Second)
	for open := true; open; {
		select {
		case _, open = <-stream.Blocks():
			n++
		case <-deadline:
			t.Fatalf("the lagging stream delivered %d blocks and did not end", n)
		}
	}
	if err := stream.Err(); !errors.Is(err, fabric.ErrBlockNotFound) || !strings.Contains(err.Error(), "fell out of the retained history") {
		t.Fatalf("the lagging stream ended with %v, want ErrBlockNotFound naming the range", err)
	}
}

// broadcastUntilReleased broadcasts two-envelope blocks from a few
// goroutines until the frontend has released blocks of channel.
func broadcastUntilReleased(t *testing.T, fe *Frontend, channel string, blocks uint64) {
	t.Helper()
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				fe.BroadcastRaw(mkEnvelope(channel, w<<24|i, 32).Marshal())
			}
		}()
	}
	defer wg.Wait()
	defer close(done)
	deadline := time.Now().Add(60 * time.Second)
	for fe.ReleasedHeight(channel) < blocks {
		if time.Now().After(deadline) {
			t.Fatalf("released %d of %d blocks", fe.ReleasedHeight(channel), blocks)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// The solo orderer keeps no history below its window: a stream that lagged
// below it ends with ErrBlockNotFound naming the blocks that fell out,
// after the blocks it held.
func TestSoloLaggingStreamEndsNotFound(t *testing.T) {
	solo := newSolo(t)
	stream, err := solo.Deliver("ch", fabric.DeliverNewest())
	if err != nil {
		t.Fatalf("deliver: %v", err)
	}
	defer stream.Cancel()
	reader, err := solo.Deliver("ch", fabric.DeliverNewest())
	if err != nil {
		t.Fatalf("deliver: %v", err)
	}
	defer reader.Cancel()
	for i := 0; i < lagBlocks; i++ {
		soloOrder(t, solo, reader, i)
	}

	var got uint64
	deadline := time.After(10 * time.Second)
	for open := true; open; {
		select {
		case b, ok := <-stream.Blocks():
			if open = ok; ok {
				if b.Header.Number != got {
					t.Fatalf("delivered block %d, want %d", b.Header.Number, got)
				}
				got++
			}
		case <-deadline:
			t.Fatalf("the lagging stream delivered %d blocks and did not end", got)
		}
	}
	err = stream.Err()
	if !errors.Is(err, fabric.ErrBlockNotFound) {
		t.Fatalf("the lagging stream ended with %v after %d blocks, want ErrBlockNotFound", err, got)
	}
	if want := fmt.Sprintf("blocks %d..", got); !strings.Contains(err.Error(), want) {
		t.Fatalf("the error %q does not name the range from block %d", err, got)
	}
}

// Close ends a stream whose reader never reads promptly, although more
// blocks than its buffer holds wait for it.
func TestCloseEndsNeverReadStream(t *testing.T) {
	check := func(t *testing.T, ord fabric.Orderer, closeOrderer func(), broadcast func(i int), closedErr error) {
		stream, err := ord.Deliver("ch", fabric.DeliverNewest())
		if err != nil {
			t.Fatalf("deliver: %v", err)
		}
		buffer := cap(stream.Blocks())
		for i := 0; len(stream.Blocks()) < buffer; i++ {
			if i > 100*buffer {
				t.Fatalf("the stream's buffer holds %d blocks after %d broadcasts", len(stream.Blocks()), i)
			}
			broadcast(i)
			time.Sleep(time.Millisecond)
		}
		for i := 0; i < 2*buffer; i++ {
			broadcast(1000 + i)
		}
		closed := make(chan struct{})
		go func() {
			closeOrderer()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(5 * time.Second):
			t.Fatal("Close did not return while a stream was never read")
		}
		for range stream.Blocks() {
		}
		if err := stream.Err(); !errors.Is(err, closedErr) {
			t.Fatalf("the stream ended with %v, want %v", err, closedErr)
		}
	}
	t.Run("solo", func(t *testing.T) {
		solo := newSolo(t)
		check(t, solo, solo.Close, func(i int) { solo.Broadcast(mkEnvelope("ch", i, 16)) }, fabric.ErrServiceUnavailable)
	})
	t.Run("frontend", func(t *testing.T) {
		c := testCluster(t, ClusterConfig{Nodes: 4, BlockSize: 1})
		fe := testFrontend(t, c, "fe-close", false)
		check(t, fe, fe.Close, func(i int) { fe.Broadcast(mkEnvelope("ch", i, 16)) }, ErrFrontendClosed)
	})
}

// fetchServer answers FetchBlocks requests from one fake node's endpoint
// with a canned chain.
func serveFakeFetch(t *testing.T, conn transport.Conn, chain []*fabric.Block) {
	t.Helper()
	go func() {
		for m := range conn.Inbox() {
			if m.Type != MsgFetchRequest {
				continue
			}
			req, err := unmarshalFetchRequest(m.Payload)
			if err != nil {
				continue
			}
			resp := fetchResponse{ReqID: req.ReqID, From: req.From}
			for _, b := range chain {
				n := b.Header.Number
				if n >= req.From && n < req.To {
					resp.Blocks = append(resp.Blocks, b.Marshal())
				}
			}
			conn.Send(m.From, MsgFetchResponse, resp.marshal())
		}
	}()
}

// TestDeliverFetchRejectsForgedHistory: a Byzantine node serving a forged
// (but internally consistent) history cannot poison a historical seek —
// the range must link into the quorum-released anchor, so the frontend
// discards the forgery and takes the honest copy from the next peer.
func TestDeliverFetchRejectsForgedHistory(t *testing.T) {
	net := transport.NewInProcNetwork(transport.InProcConfig{})
	defer net.Close()
	nodes := newFakeNodes(t, net, 4, nil)

	// The real chain 0..4; the frontend will see only block 4 live.
	real := make([]*fabric.Block, 5)
	var prev cryptoutil.Digest
	for i := range real {
		real[i] = fabric.NewBlock(uint64(i), prev, [][]byte{feEnv(i)})
		prev = real[i].Header.Hash()
	}
	// A forged prefix: internally linked, same numbering, different
	// content, so it cannot link into block 4's PrevHash.
	forged := make([]*fabric.Block, 4)
	prev = cryptoutil.Digest{}
	for i := range forged {
		forged[i] = fabric.NewBlock(uint64(i), prev, [][]byte{feEnv(1000 + i)})
		prev = forged[i].Header.Hash()
	}

	serveFakeFetch(t, nodes.conns[0], forged)
	serveFakeFetch(t, nodes.conns[1], real[:4])
	// Nodes 2 and 3 answer (emptily) rather than staying silent, so the
	// frontend's head probes fail fast instead of timing out.
	serveFakeFetch(t, nodes.conns[2], nil)
	serveFakeFetch(t, nodes.conns[3], nil)

	fe, err := NewFrontend(FrontendConfig{ID: "fe", Replicas: ids4()}, net)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	defer fe.Close()

	stream, err := fe.Deliver("ch", fabric.DeliverOldest())
	if err != nil {
		t.Fatalf("deliver: %v", err)
	}
	defer stream.Cancel()
	// Release block 4 through a quorum: this anchors the fetch. Nodes 2
	// and 3 do not serve fetches at all (their inboxes drain nothing), so
	// the frontend must succeed via node 1 after rejecting node 0.
	for i := 0; i < 3; i++ {
		nodes.send(t, i, "ch", real[4], "fe")
	}
	blocks := collectStream(t, stream, 0, 5, 20*time.Second)
	if err := fabric.VerifyChain(blocks); err != nil {
		t.Fatalf("delivered chain: %v", err)
	}
	for i, b := range blocks[:4] {
		if b.Header.Hash() != real[i].Header.Hash() {
			t.Fatalf("block %d is not the honest copy", i)
		}
	}
}

// TestDeliverSeekOldestMidChainFrontendFetches: a frontend attached to a
// durable cluster after N blocks were sealed serves Seek(Oldest) by
// fetching 0..N-1 from the nodes' durable ledgers, then tails live blocks
// seamlessly.
func TestDeliverSeekOldestMidChainFrontendFetches(t *testing.T) {
	c := testCluster(t, ClusterConfig{Nodes: 4, BlockSize: 2, DataDir: t.TempDir()})
	fe1 := testFrontend(t, c, "frontend-1", false)
	live1 := deliverNewest(t, fe1, "ch")
	for i := 0; i < 10; i++ {
		if st := fe1.Broadcast(mkEnvelope("ch", i, 32)); st != fabric.StatusSuccess {
			t.Fatalf("broadcast: %s", st)
		}
	}
	collectBlocks(t, live1, 10, 10*time.Second) // blocks 0..4
	for i := range c.Nodes {
		waitLedgerHeight(t, c.Nodes[i], "ch", 5, 5*time.Second)
	}

	// A second frontend joins mid-chain: its history is empty, so the
	// seek anchors on the first live block and back-fills 0..4 from the
	// nodes.
	fe2 := testFrontend(t, c, "frontend-2", false)
	stream, err := fe2.Deliver("ch", fabric.DeliverOldest())
	if err != nil {
		t.Fatalf("deliver oldest: %v", err)
	}
	defer stream.Cancel()
	for i := 10; i < 14; i++ {
		if st := fe1.Broadcast(mkEnvelope("ch", i, 32)); st != fabric.StatusSuccess {
			t.Fatalf("broadcast: %s", st)
		}
	}
	blocks := collectStream(t, stream, 0, 7, 20*time.Second)
	if err := fabric.VerifyChain(blocks); err != nil {
		t.Fatalf("stitched chain: %v", err)
	}
}

// TestDeliverSeekOldestAcrossFullClusterRestart is the acceptance
// scenario: after a full-cluster stop and restart from --data-dir, a
// fresh frontend's Seek(Oldest) yields blocks 0..N-1 from durable storage
// followed by live blocks, in order, no gaps or duplicates.
func TestDeliverSeekOldestAcrossFullClusterRestart(t *testing.T) {
	dataDir := t.TempDir()
	c := testCluster(t, ClusterConfig{Nodes: 4, BlockSize: 2, DataDir: dataDir})
	fe := testFrontend(t, c, "frontend-a", false)
	live := deliverNewest(t, fe, "ch")
	const sealed = 6
	for i := 0; i < sealed*2; i++ {
		if st := fe.Broadcast(mkEnvelope("ch", i, 32)); st != fabric.StatusSuccess {
			t.Fatalf("broadcast: %s", st)
		}
	}
	collectBlocks(t, live, sealed*2, 10*time.Second) // blocks 0..5
	for i := range c.Nodes {
		waitLedgerHeight(t, c.Nodes[i], "ch", sealed, 5*time.Second)
	}
	fe.Close()
	c.Stop() // full-cluster stop: only the data directories survive

	c2 := testCluster(t, ClusterConfig{Nodes: 4, BlockSize: 2, DataDir: dataDir})
	fe2 := testFrontend(t, c2, "frontend-b", false)
	stream, err := fe2.Deliver("ch", fabric.DeliverOldest())
	if err != nil {
		t.Fatalf("deliver oldest after restart: %v", err)
	}
	defer stream.Cancel()
	// New traffic provides the anchor block and the live tail.
	for i := sealed * 2; i < sealed*2+4; i++ {
		if st := fe2.Broadcast(mkEnvelope("ch", i, 32)); st != fabric.StatusSuccess {
			t.Fatalf("broadcast after restart: %s", st)
		}
	}
	blocks := collectStream(t, stream, 0, sealed+2, 30*time.Second)
	if err := fabric.VerifyChain(blocks); err != nil {
		t.Fatalf("replayed chain across restart: %v", err)
	}
	if blocks[0].Header.Number != 0 || blocks[sealed-1].Header.Number != sealed-1 {
		t.Fatalf("replay did not cover the durable chain")
	}
}

// TestSoloDeliverSeek: the solo orderer serves the same seek surface from
// its retained history.
func TestSoloDeliverSeek(t *testing.T) {
	key, err := cryptoutil.GenerateKeyPair()
	if err != nil {
		t.Fatalf("keygen: %v", err)
	}
	solo, err := NewSoloOrderer(SoloConfig{BlockSize: 2, Key: key, SigningWorkers: 2})
	if err != nil {
		t.Fatalf("solo: %v", err)
	}
	defer solo.Close()
	live := deliverNewest(t, solo, "ch")
	for i := 0; i < 8; i++ {
		if st := solo.Broadcast(mkEnvelope("ch", i, 16)); st != fabric.StatusSuccess {
			t.Fatalf("broadcast: %s", st)
		}
	}
	collectBlocks(t, live, 8, 5*time.Second)

	stream, err := solo.Deliver("ch", fabric.DeliverOldest().Through(2))
	if err != nil {
		t.Fatalf("deliver: %v", err)
	}
	blocks := collectStream(t, stream, 0, 3, 5*time.Second)
	if err := fabric.VerifyChain(blocks); err != nil {
		t.Fatalf("replayed solo chain: %v", err)
	}
	if _, ok := <-stream.Blocks(); ok {
		t.Fatal("solo stream did not stop at the stop position")
	}
}

// TestDeliverBoundedReplayNeedsNoLiveTraffic: after a full-cluster restart
// a read-only client's bounded seek (stop position set) must replay the
// durable chain without anyone broadcasting new envelopes — the fetch is
// authenticated by f+1 peers agreeing on the top block instead of a live
// anchor.
func TestDeliverBoundedReplayNeedsNoLiveTraffic(t *testing.T) {
	dataDir := t.TempDir()
	c := testCluster(t, ClusterConfig{Nodes: 4, BlockSize: 2, DataDir: dataDir})
	fe := testFrontend(t, c, "frontend-a", false)
	live := deliverNewest(t, fe, "ch")
	for i := 0; i < 8; i++ {
		if st := fe.Broadcast(mkEnvelope("ch", i, 32)); st != fabric.StatusSuccess {
			t.Fatalf("broadcast: %s", st)
		}
	}
	collectBlocks(t, live, 8, 10*time.Second) // blocks 0..3
	for i := range c.Nodes {
		waitLedgerHeight(t, c.Nodes[i], "ch", 4, 5*time.Second)
	}
	fe.Close()
	c.Stop()

	c2 := testCluster(t, ClusterConfig{Nodes: 4, BlockSize: 2, DataDir: dataDir})
	fe2 := testFrontend(t, c2, "frontend-b", false)
	stream, err := fe2.Deliver("ch", fabric.DeliverOldest().Through(3))
	if err != nil {
		t.Fatalf("deliver: %v", err)
	}
	// No broadcasts at all: the replay must complete from durable storage.
	blocks := collectStream(t, stream, 0, 4, 30*time.Second)
	if err := fabric.VerifyChain(blocks); err != nil {
		t.Fatalf("replayed chain: %v", err)
	}
	select {
	case _, ok := <-stream.Blocks():
		if ok {
			t.Fatal("stream delivered past the stop")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not close after the stop position")
	}
	if err := stream.Err(); err != nil {
		t.Fatalf("bounded replay ended with: %v", err)
	}
}

// TestDeliverUnboundedReplayOnIdleChain: an unbounded Seek(Oldest) issued
// on an idle chain (no live traffic at all) must still replay the durable
// blocks, anchored on a quorum-agreed head block, and then keep tailing.
func TestDeliverUnboundedReplayOnIdleChain(t *testing.T) {
	dataDir := t.TempDir()
	c := testCluster(t, ClusterConfig{Nodes: 4, BlockSize: 2, DataDir: dataDir})
	fe := testFrontend(t, c, "frontend-a", false)
	live := deliverNewest(t, fe, "ch")
	for i := 0; i < 8; i++ {
		if st := fe.Broadcast(mkEnvelope("ch", i, 32)); st != fabric.StatusSuccess {
			t.Fatalf("broadcast: %s", st)
		}
	}
	collectBlocks(t, live, 8, 10*time.Second) // blocks 0..3
	for i := range c.Nodes {
		waitLedgerHeight(t, c.Nodes[i], "ch", 4, 5*time.Second)
	}
	fe.Close()
	c.Stop()

	c2 := testCluster(t, ClusterConfig{Nodes: 4, BlockSize: 2, DataDir: dataDir})
	fe2 := testFrontend(t, c2, "frontend-b", false)
	stream, err := fe2.Deliver("ch", fabric.DeliverOldest())
	if err != nil {
		t.Fatalf("deliver: %v", err)
	}
	defer stream.Cancel()
	// No broadcasts: the replay must complete from durable storage alone.
	collectStream(t, stream, 0, 4, 30*time.Second)
	// The stream then resumes tailing seamlessly once traffic returns.
	if st := fe2.Broadcast(mkEnvelope("ch", 100, 32)); st != fabric.StatusSuccess {
		t.Fatalf("broadcast: %s", st)
	}
	if st := fe2.Broadcast(mkEnvelope("ch", 101, 32)); st != fabric.StatusSuccess {
		t.Fatalf("broadcast: %s", st)
	}
	collectStream(t, stream, 4, 1, 20*time.Second)
}

// TestDeliverKeylessFrontendReplaysHistory: a frontend given no
// verification keys, as cmd/frontend runs, still serves history below its
// window from a durable cluster, gap-free and hash-linked: an Oldest
// replay from an empty window agrees on the chain's head by f+1 serving
// nodes, and a bounded seek below the window agrees on its stop block.
func TestDeliverKeylessFrontendReplaysHistory(t *testing.T) {
	dataDir := t.TempDir()
	c := testCluster(t, ClusterConfig{Nodes: 4, BlockSize: 2, DataDir: dataDir})
	writer := testFrontend(t, c, "frontend-a", false)
	live := deliverNewest(t, writer, "ch")
	for i := 0; i < 12; i++ {
		if st := writer.Broadcast(mkEnvelope("ch", i, 32)); st != fabric.StatusSuccess {
			t.Fatalf("broadcast: %s", st)
		}
	}
	canon := collectBlocks(t, live, 12, 10*time.Second) // blocks 0..5
	for i := range c.Nodes {
		waitLedgerHeight(t, c.Nodes[i], "ch", 6, 5*time.Second)
	}
	writer.Close()
	// A full-cluster restart leaves the nodes nothing recent to push to a
	// newly registered frontend: its window stays empty until a release.
	c.Stop()
	c = testCluster(t, ClusterConfig{Nodes: 4, BlockSize: 2, DataDir: dataDir})

	fe, err := NewFrontend(FrontendConfig{ID: "frontend-keyless", Replicas: c.Replicas(), F: c.cfg.F}, c.Network)
	if err != nil {
		t.Fatalf("keyless frontend: %v", err)
	}
	defer fe.Close()
	canonical := func(blocks []*fabric.Block) {
		t.Helper()
		if err := fabric.VerifyChain(blocks); err != nil {
			t.Fatalf("replayed chain: %v", err)
		}
		for _, b := range blocks {
			if b.Header.Hash() != canon[b.Header.Number].Header.Hash() {
				t.Fatalf("block %d is not the canonical copy", b.Header.Number)
			}
		}
	}
	window := func() *fabric.Block { return fe.logs.log("ch").oldest() }

	oldest, err := fe.Deliver("ch", fabric.DeliverOldest())
	if err != nil {
		t.Fatalf("deliver oldest: %v", err)
	}
	defer oldest.Cancel()
	canonical(collectStream(t, oldest, 0, 6, 20*time.Second))
	if b := window(); b != nil {
		t.Fatalf("the replay was served from a window holding block %d", b.Header.Number)
	}

	// A live block opens the window above the history, and the Oldest
	// stream follows on into it.
	writer = testFrontend(t, c, "frontend-b", false)
	live = deliverNewest(t, writer, "ch")
	for i := 12; i < 14; i++ {
		if st := writer.Broadcast(mkEnvelope("ch", i, 32)); st != fabric.StatusSuccess {
			t.Fatalf("broadcast: %s", st)
		}
	}
	canon = append(canon, collectBlocks(t, live, 2, 10*time.Second)...)
	canonical(collectStream(t, oldest, 6, 1, 10*time.Second))
	if b := window(); b == nil || b.Header.Number != 6 {
		t.Fatal("the keyless frontend's window does not start at block 6")
	}

	bounded, err := fe.Deliver("ch", fabric.DeliverFrom(1).Through(3))
	if err != nil {
		t.Fatalf("deliver 1..3: %v", err)
	}
	canonical(collectStream(t, bounded, 1, 3, 20*time.Second))
	if _, ok := <-bounded.Blocks(); ok {
		t.Fatal("bounded stream delivered past its stop")
	}
	if err := bounded.Err(); err != nil {
		t.Fatalf("bounded seek ended with: %v", err)
	}
}
