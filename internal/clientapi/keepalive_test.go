package clientapi

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/fabric"
	"repro/internal/wire"
)

// stubOrderer serves scripted Deliver outcomes and records cancellations.
type stubOrderer struct {
	mu       sync.Mutex
	deliver  func() (*fabric.BlockStream, error)
	canceled chan struct{}
}

func (s *stubOrderer) Broadcast(*fabric.Envelope) fabric.BroadcastStatus {
	return fabric.StatusSuccess
}

func (s *stubOrderer) Deliver(string, fabric.SeekInfo) (*fabric.BlockStream, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deliver()
}

// startServer serves orderer on a loopback listener.
func startServer(t *testing.T, orderer fabric.Orderer, opts ServerOptions) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerWithOptions(orderer, opts)
	go srv.Serve(ln)
	t.Cleanup(srv.Close)
	return ln.Addr().String()
}

// TestPrunedSeekSurfacesNotFound checks the retention error surface on
// the wire: a Deliver whose stream fails with the typed pruned error
// ends with NOT_FOUND at the client.
func TestPrunedSeekSurfacesNotFound(t *testing.T) {
	stub := &stubOrderer{
		deliver: func() (*fabric.BlockStream, error) {
			stream := fabric.NewBlockStream()
			stream.Close(&fabric.PrunedError{Channel: "ch", Floor: 7})
			return stream, nil
		},
	}
	addr := startServer(t, stub, ServerOptions{})
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	stream, err := client.Deliver("ch", fabric.DeliverFrom(0))
	if err != nil {
		t.Fatal(err)
	}
	for range stream.Blocks() {
		t.Fatal("pruned stream delivered a block")
	}
	serr := stream.Err()
	if serr == nil || !strings.Contains(serr.Error(), "NOT_FOUND") {
		t.Fatalf("pruned stream ended with %v, want NOT_FOUND", serr)
	}
	if !strings.Contains(serr.Error(), "below 7") {
		t.Fatalf("pruned detail lost: %v", serr)
	}
}

// A Deliver whose cursor lies below the solo orderer's retained window
// (the orderer keeps no ledger to fetch it from) ends with NOT_FOUND at
// the client, naming the blocks that fell out.
func TestLaggingSoloStreamSurfacesNotFound(t *testing.T) {
	key, err := cryptoutil.GenerateKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	solo, err := core.NewSoloOrderer(core.SoloConfig{BlockSize: 1, Key: key, SigningWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(solo.Close)
	reader, err := solo.Deliver("ch", fabric.DeliverNewest())
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Cancel()
	// Twice the window: its floor has moved above block 0 once the reader
	// has seen them all.
	const blocks = 2 * core.DefaultHistoryLimit
	for i := 0; i < blocks; i++ {
		if st := solo.Broadcast(mkEnv("ch", i)); st != fabric.StatusSuccess {
			t.Fatalf("broadcast %d: %s", i, st)
		}
	}
	for i := 0; i < blocks; i++ {
		select {
		case <-reader.Blocks():
		case <-time.After(10 * time.Second):
			t.Fatalf("read %d of %d blocks", i, blocks)
		}
	}

	client, err := Dial(startServer(t, solo, ServerOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	stream, err := client.Deliver("ch", fabric.DeliverFrom(0))
	if err != nil {
		t.Fatal(err)
	}
	for range stream.Blocks() {
		t.Fatal("a stream below the window delivered a block")
	}
	serr := stream.Err()
	if serr == nil || !strings.Contains(serr.Error(), "NOT_FOUND") || !strings.Contains(serr.Error(), "blocks 0..") {
		t.Fatalf("the stream ended with %v, want NOT_FOUND naming the blocks from 0", serr)
	}
}

// TestKeepaliveDropsDeadClient opens a Deliver stream from a raw TCP
// connection that never answers pings: the server must ping after the
// idle period, then drop the connection and cancel the stream, releasing
// the dead client's resources.
func TestKeepaliveDropsDeadClient(t *testing.T) {
	canceled := make(chan struct{})
	stub := &stubOrderer{
		deliver: func() (*fabric.BlockStream, error) {
			stream := fabric.NewBlockStream()
			go func() {
				<-stream.Canceled()
				stream.Close(nil)
				close(canceled)
			}()
			return stream, nil
		},
	}
	addr := startServer(t, stub, ServerOptions{
		IdleTimeout: 50 * time.Millisecond,
		PingTimeout: 50 * time.Millisecond,
	})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(frameOf(func(w *wire.Writer) { putDeliver(w, 1, "ch", fabric.DeliverNewest()) })); err != nil {
		t.Fatal(err)
	}

	// The server pings, gets silence, and hangs up: the raw read sees the
	// ping frame and then EOF.
	sawPing := false
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	fr := wire.NewFrameReader(conn, maxFrameBytes)
	for {
		payload, err := fr.Next()
		if err != nil {
			break // connection dropped by the server
		}
		f, err := decodeFrame(payload)
		if err != nil {
			t.Fatalf("decoding server frame: %v", err)
		}
		if f.kind == msgPing {
			sawPing = true // stay silent: this client is "dead"
		}
	}
	if !sawPing {
		t.Fatal("server dropped the connection without pinging first")
	}
	select {
	case <-canceled:
	case <-time.After(5 * time.Second):
		t.Fatal("dead client's Deliver stream was never canceled")
	}
}

// TestKeepaliveHealthyClientSurvivesIdle keeps a real Client silent far
// longer than the idle timeout: the automatic pong answers keep the
// connection alive, so a later Broadcast still succeeds.
func TestKeepaliveHealthyClientSurvivesIdle(t *testing.T) {
	stub := &stubOrderer{}
	// The pong has PingTimeout to arrive, room for a CPU-starved client;
	// the idle spans two full ping cycles, so a client that never answered
	// would be dropped long before the broadcast.
	const idle, grace = 30 * time.Millisecond, 250 * time.Millisecond
	addr := startServer(t, stub, ServerOptions{IdleTimeout: idle, PingTimeout: grace})
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	time.Sleep(2*(idle+grace) + 40*time.Millisecond)
	status, _, err := client.Broadcast(&fabric.Envelope{ChannelID: "ch", ClientID: "c"})
	if err != nil {
		t.Fatalf("broadcast after idling: %v", err)
	}
	if status != fabric.StatusSuccess {
		t.Fatalf("broadcast after idling acked %v", status)
	}
}
