package clientapi

import (
	"fmt"
	"math"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/fabric"
)

// startSoloServer serves a solo orderer over the wire protocol on a
// loopback listener and returns its address.
func startSoloServer(t *testing.T, blockSize int) (string, *core.SoloOrderer) {
	t.Helper()
	key, err := cryptoutil.GenerateKeyPair()
	if err != nil {
		t.Fatalf("keygen: %v", err)
	}
	solo, err := core.NewSoloOrderer(core.SoloConfig{BlockSize: blockSize, Key: key, SigningWorkers: 2})
	if err != nil {
		t.Fatalf("solo: %v", err)
	}
	t.Cleanup(solo.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := NewServer(solo)
	go srv.Serve(ln)
	t.Cleanup(srv.Close)
	return ln.Addr().String(), solo
}

func mkEnv(channel string, i int) *fabric.Envelope {
	return &fabric.Envelope{
		ChannelID:         channel,
		ClientID:          "wire-test",
		TimestampUnixNano: int64(i),
		Payload:           []byte(fmt.Sprintf("payload-%d", i)),
	}
}

// TestWireProtocolBroadcastAndDeliver drives the full loop over real TCP:
// typed acks, a live Deliver stream, and a historical replay with a stop
// position from a second connection.
func TestWireProtocolBroadcastAndDeliver(t *testing.T) {
	addr, _ := startSoloServer(t, 2)
	cli, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cli.Close()

	stream, err := cli.Deliver("ch", fabric.DeliverNewest())
	if err != nil {
		t.Fatalf("deliver: %v", err)
	}
	for i := 0; i < 6; i++ {
		status, detail, err := cli.Broadcast(mkEnv("ch", i))
		if err != nil {
			t.Fatalf("broadcast %d: %v", i, err)
		}
		if status != fabric.StatusSuccess {
			t.Fatalf("broadcast %d acked %s (%s)", i, status, detail)
		}
	}
	var got []*fabric.Block
	deadline := time.After(10 * time.Second)
	for len(got) < 3 {
		select {
		case b, ok := <-stream.Blocks():
			if !ok {
				t.Fatalf("stream closed early: %v", stream.Err())
			}
			got = append(got, b)
		case <-deadline:
			t.Fatalf("timed out with %d blocks", len(got))
		}
	}
	if err := fabric.VerifyChain(got); err != nil {
		t.Fatalf("delivered chain: %v", err)
	}
	stream.Cancel()

	// A second, late connection replays the sealed chain via a seek and
	// stops at the stop position.
	cli2, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial 2: %v", err)
	}
	defer cli2.Close()
	replay, err := cli2.Deliver("ch", fabric.DeliverOldest().Through(1))
	if err != nil {
		t.Fatalf("deliver oldest: %v", err)
	}
	var replayed []*fabric.Block
	for b := range replay.Blocks() {
		replayed = append(replayed, b)
	}
	if err := replay.Err(); err != nil {
		t.Fatalf("replay ended with: %v", err)
	}
	if len(replayed) != 2 || replayed[0].Header.Number != 0 || replayed[1].Header.Number != 1 {
		t.Fatalf("replayed %d blocks, want exactly 0..1", len(replayed))
	}
}

// TestWireProtocolTypedErrors maps orderer rejections onto wire statuses.
func TestWireProtocolTypedErrors(t *testing.T) {
	addr, _ := startSoloServer(t, 2)
	cli, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cli.Close()

	// Empty channel: rejected by the orderer with BAD_REQUEST.
	status, _, err := cli.Broadcast(&fabric.Envelope{ClientID: "x", Payload: []byte("y")})
	if err != nil {
		t.Fatalf("broadcast: %v", err)
	}
	if status != fabric.StatusBadRequest {
		t.Fatalf("empty-channel envelope acked %s, want BAD_REQUEST", status)
	}
	// A seek whose stop precedes its start fails the stream immediately.
	stream, err := cli.Deliver("ch", fabric.DeliverFrom(5).Through(2))
	if err != nil {
		t.Fatalf("deliver: %v", err)
	}
	select {
	case _, ok := <-stream.Blocks():
		if ok {
			t.Fatal("bad seek delivered a block")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("bad seek stream never ended")
	}
	if stream.Err() == nil {
		t.Fatal("bad seek ended without error")
	}
}

// TestWireProtocolCancel cancels a live tail and checks the stream closes
// cleanly while the connection stays usable.
func TestWireProtocolCancel(t *testing.T) {
	addr, _ := startSoloServer(t, 2)
	cli, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cli.Close()
	stream, err := cli.Deliver("ch", fabric.DeliverNewest())
	if err != nil {
		t.Fatalf("deliver: %v", err)
	}
	stream.Cancel()
	select {
	case _, ok := <-stream.Blocks():
		if ok {
			t.Fatal("canceled stream delivered a block")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled stream never closed")
	}
	if err := stream.Err(); err != nil {
		t.Fatalf("canceled stream ended with: %v", err)
	}
	// The connection still serves broadcasts.
	if status, _, err := cli.Broadcast(mkEnv("ch", 0)); err != nil || status != fabric.StatusSuccess {
		t.Fatalf("broadcast after cancel: %s, %v", status, err)
	}
}

// TestWireDeliverStopBeyondChain: a wire client may name any stop it likes.
// A stop the chain has not reached — however far beyond it, including
// math.MaxUint64, Fabric's idiom for "no stop" — replays what exists and
// keeps tailing. It must neither size anything by the requested range
// (the frontend has no retained history, so the range goes to the nodes)
// nor close early.
func TestWireDeliverStopBeyondChain(t *testing.T) {
	c, err := core.NewCluster(core.ClusterConfig{
		Nodes: 4, BlockSize: 2, DataDir: t.TempDir(), RequestTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	t.Cleanup(c.Stop)
	writer, err := c.NewFrontend("fe-writer", false)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	t.Cleanup(writer.Close)
	const blocks = 4
	for i := 0; i < 2*blocks; i++ {
		if st := writer.Broadcast(mkEnv("ch", i)); st != fabric.StatusSuccess {
			t.Fatalf("broadcast %d: %s", i, st)
		}
	}
	deadline := time.Now().Add(15 * time.Second)
	for _, node := range c.Nodes {
		for node.PersistWatermark("ch") < blocks {
			if time.Now().After(deadline) {
				t.Fatalf("node %d persisted %d of %d blocks", int(node.ID()), node.PersistWatermark("ch"), blocks)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// A frontend that registered after the chain was sealed retains none
	// of it.
	reader, err := c.NewFrontend("fe-reader", false)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	t.Cleanup(reader.Close)
	cli, err := Dial(startServer(t, reader, ServerOptions{}))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cli.Close()
	for _, stop := range []uint64{1 << 62, math.MaxUint64} {
		stream, err := cli.Deliver("ch", fabric.DeliverFrom(0).Through(stop))
		if err != nil {
			t.Fatalf("deliver through %d: %v", stop, err)
		}
		timeout := time.After(30 * time.Second)
		for want := uint64(0); want < blocks; want++ {
			select {
			case b, ok := <-stream.Blocks():
				if !ok {
					t.Fatalf("through %d: stream closed before block %d: %v", stop, want, stream.Err())
				}
				if b.Header.Number != want {
					t.Fatalf("through %d: block %d where %d was due", stop, b.Header.Number, want)
				}
			case <-timeout:
				t.Fatalf("through %d: timed out waiting for block %d", stop, want)
			}
		}
		select {
		case b, ok := <-stream.Blocks():
			t.Fatalf("through %d: stream did not keep tailing (block %v, open %v, err %v)", stop, b, ok, stream.Err())
		case <-time.After(300 * time.Millisecond):
		}
		stream.Cancel()
	}
}
