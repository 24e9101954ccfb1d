package clientapi

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"testing"
	"testing/iotest"
	"unsafe"

	"repro/internal/cryptoutil"
	"repro/internal/fabric"
	"repro/internal/wire"
)

// frameOf returns the frame put appends.
func frameOf(put func(w *wire.Writer)) []byte {
	var w wire.Writer
	put(&w)
	return w.Bytes()
}

// legacyFrame, legacyBlock and legacyBroadcast are the encoders that
// marshalled a block or envelope into a buffer of its own and copied it
// into the frame body, which was then written after its length prefix: the
// bytes the one-copy encoders must reproduce.
func legacyFrame(body []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

func legacyBlock(streamID uint64, block *fabric.Block) []byte {
	raw := block.Marshal()
	w := wire.NewWriter(16 + len(raw))
	w.PutByte(msgBlock)
	w.PutUint64(streamID)
	w.PutBytes(raw)
	return legacyFrame(w.Bytes())
}

func legacyBroadcast(id uint64, envelope []byte) []byte {
	w := wire.NewWriter(16 + len(envelope))
	w.PutByte(msgBroadcast)
	w.PutUint64(id)
	w.PutBytes(envelope)
	return legacyFrame(w.Bytes())
}

// randomField is 0 to max random bytes.
func randomField(rng *rand.Rand, max int) []byte {
	b := make([]byte, rng.Intn(max+1))
	rng.Read(b)
	return b
}

// randomBlock is a block of 0 to envs envelopes of 0 to 300 bytes and 0 to
// 4 signatures, so every uvarint length prefix takes one byte or two.
func randomBlock(rng *rand.Rand, num uint64, envs int) *fabric.Block {
	envelopes := make([][]byte, rng.Intn(envs+1))
	for i := range envelopes {
		envelopes[i] = randomField(rng, 300)
	}
	var prev cryptoutil.Digest
	rng.Read(prev[:])
	b := fabric.NewBlock(num, prev, envelopes)
	for i := rng.Intn(5); i > 0; i-- {
		b.Signatures = append(b.Signatures, fabric.BlockSignature{SignerID: string(randomField(rng, 20)), Signature: randomField(rng, 200)})
	}
	return b
}

func randomEnvelope(rng *rand.Rand) *fabric.Envelope {
	return &fabric.Envelope{
		ChannelID:         string(randomField(rng, 20)),
		ClientID:          string(randomField(rng, 150)),
		TimestampUnixNano: rng.Int63(),
		Payload:           randomField(rng, 2000),
		Signature:         randomField(rng, 64),
	}
}

// A block and a broadcast are encoded straight into their frame, with the
// exact bytes of the encoders that copied a separately marshalled block or
// envelope into it; frames appended to one buffer are the concatenation.
func TestEncodersMatchLegacyBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var out wire.Writer
	var want []byte
	for i := 0; i < 200; i++ {
		id := rng.Uint64() >> rng.Intn(64)
		b := randomBlock(rng, uint64(i), 40)
		if got, legacy := frameOf(func(w *wire.Writer) { putBlock(w, id, b) }), legacyBlock(id, b); !bytes.Equal(got, legacy) {
			t.Fatalf("block %d: %d bytes, legacy %d", i, len(got), len(legacy))
		}
		env := randomEnvelope(rng)
		if got, legacy := frameOf(func(w *wire.Writer) { putBroadcast(w, id, env) }), legacyBroadcast(id, env.Marshal()); !bytes.Equal(got, legacy) {
			t.Fatalf("envelope %d: %d bytes, legacy %d", i, len(got), len(legacy))
		}
		putBlock(&out, id, b)
		putBroadcast(&out, id, env)
		want = append(append(want, legacyBlock(id, b)...), legacyBroadcast(id, env.Marshal())...)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatal("frames appended to one buffer differ from the legacy frames in a row")
	}
}

// discardConn accepts every Write.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }

// Once its framing buffer has grown, a connection writes a block frame
// without allocating: the block is encoded into the buffer the previous
// frame left. (Marshalling the block, copying it into a frame body and
// writing the length prefix took three allocations per block.)
func TestDeliverFrameAllocatesNothing(t *testing.T) {
	sc := &serverConn{frameConn: frameConn{conn: discardConn{}}}
	b := randomBlock(rand.New(rand.NewSource(2)), 7, 40)
	if allocs := testing.AllocsPerRun(100, func() {
		if err := sc.sendBlocks(1, b, nil); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("%.0f allocations per block frame, want 0", allocs)
	}
}

// pipeServer serves orderer on one end of a net.Pipe and returns a Client
// on the other; closing the client ends both.
func pipeServer(t *testing.T, orderer fabric.Orderer) *Client {
	t.Helper()
	clientEnd, serverEnd := net.Pipe()
	srv := NewServerWithOptions(orderer, ServerOptions{IdleTimeout: -1})
	srv.wg.Add(1)
	go srv.handle(serverEnd)
	client := newClient(clientEnd)
	t.Cleanup(func() {
		client.Close()
		srv.wg.Wait()
	})
	return client
}

// scriptOrderer acks every broadcast, keeping the envelope, and answers a
// Deliver on channel ch with blocks(ch), then a clean end.
type scriptOrderer struct {
	blocks func(channel string) []*fabric.Block

	mu   sync.Mutex
	envs []*fabric.Envelope
}

func (s *scriptOrderer) Broadcast(env *fabric.Envelope) fabric.BroadcastStatus {
	s.mu.Lock()
	s.envs = append(s.envs, env)
	s.mu.Unlock()
	return fabric.StatusSuccess
}

func (s *scriptOrderer) Deliver(channel string, _ fabric.SeekInfo) (*fabric.BlockStream, error) {
	stream := fabric.NewBlockStream()
	go func() {
		for _, b := range s.blocks(channel) {
			if !stream.Push(b) {
				break
			}
		}
		stream.Close(nil)
	}()
	return stream, nil
}

// sizedBlocks is a chain of n blocks whose one envelope is 1 byte to 150 KiB
// long, so frames fill a fraction of the reader's chunk, straddle its edge,
// or exceed it.
func sizedBlocks(tag string, n int) []*fabric.Block {
	rng := rand.New(rand.NewSource(int64(tag[len(tag)-1])))
	blocks := make([]*fabric.Block, n)
	var prev cryptoutil.Digest
	for i := range blocks {
		env := append([]byte(fmt.Sprintf("%s/%d/", tag, i)), bytes.Repeat([]byte{byte(i)}, rng.Intn(150<<10))...)
		blocks[i] = fabric.NewBlock(uint64(i), prev, [][]byte{env})
		prev = blocks[i].Header.Hash()
	}
	return blocks
}

// Decoders hold views into the frame they decoded: the server hands the
// orderer an envelope inside its broadcast frame, and the client a block
// inside its block frame. So a frame the shared reader returned must read
// the same after any number of later frames arrived, small, straddling the
// reader's chunk or larger than it: this goes red the day the reader
// recycles a frame's buffer. (The node transport's user of the reader has
// TestTCPDeliveredPayloadIsNeverReused.)
func TestFrameReaderNeverReusesAReturnedFrame(t *testing.T) {
	const n = 300
	t.Run("server", func(t *testing.T) {
		orderer := &scriptOrderer{}
		client := pipeServer(t, orderer)
		blocks := sizedBlocks("b", n)
		for _, b := range blocks {
			env := &fabric.Envelope{ChannelID: "ch", ClientID: "c", Payload: b.Envelopes[0]}
			if status, _, err := client.Broadcast(env); err != nil || status != fabric.StatusSuccess {
				t.Fatalf("broadcast: %v %v", status, err)
			}
		}
		orderer.mu.Lock()
		defer orderer.mu.Unlock()
		for i, env := range orderer.envs {
			if !bytes.Equal(env.Payload, blocks[i].Envelopes[0]) {
				t.Fatalf("envelope %d changed while later frames arrived", i)
			}
		}
	})
	t.Run("client", func(t *testing.T) {
		want := sizedBlocks("d", n)
		client := pipeServer(t, &scriptOrderer{blocks: func(string) []*fabric.Block { return want }})
		stream, err := client.Deliver("ch", fabric.DeliverOldest())
		if err != nil {
			t.Fatal(err)
		}
		var got []*fabric.Block
		for b := range stream.Blocks() {
			got = append(got, b)
		}
		if err := stream.Err(); err != nil || len(got) != n {
			t.Fatalf("%d blocks, %v", len(got), err)
		}
		for i, b := range got {
			if !reflect.DeepEqual(b.Envelopes, want[i].Envelopes) || b.Header != want[i].Header {
				t.Fatalf("block %d changed while later frames arrived", i)
			}
		}
	})
}

// Acks and several Deliver pumps write to one connection at once, each
// pump several blocks per Write: every frame still arrives whole, each
// stream's blocks in order and each broadcast acked.
func TestConcurrentWritersKeepFramesWhole(t *testing.T) {
	const streams, blocks, senders, broadcasts = 4, 60, 3, 200
	chains := make(map[string][]*fabric.Block)
	for s := 0; s < streams; s++ {
		tag := fmt.Sprintf("stream-%d", s)
		chains[tag] = sizedBlocks(tag, blocks)
	}
	client := pipeServer(t, &scriptOrderer{blocks: func(ch string) []*fabric.Block { return chains[ch] }})

	var wg sync.WaitGroup
	errs := make(chan error, streams+senders)
	for tag, chain := range chains {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stream, err := client.Deliver(tag, fabric.DeliverOldest())
			if err != nil {
				errs <- err
				return
			}
			i := 0
			for b := range stream.Blocks() {
				if i >= len(chain) || b.Header != chain[i].Header || b.CheckIntegrity() != nil {
					errs <- fmt.Errorf("%s: block %d arrived damaged or out of order", tag, i)
					return
				}
				i++
			}
			if err := stream.Err(); err != nil || i != len(chain) {
				errs <- fmt.Errorf("%s: %d of %d blocks, %v", tag, i, len(chain), err)
			}
		}()
	}
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(s)))
			for i := 0; i < broadcasts; i++ {
				if status, _, err := client.Broadcast(randomEnvelope(rng)); err != nil || status != fabric.StatusSuccess {
					errs <- fmt.Errorf("sender %d broadcast %d: %v %v", s, i, status, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// insideFrame fails unless s is a capped view into frame: every byte it can
// reach, up to its capacity, is a byte of frame.
func insideFrame(t *testing.T, frame, s []byte) {
	t.Helper()
	if cap(s) == 0 {
		return
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(frame)))
	at := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	if cap(s) != len(s) || at < lo || at+uintptr(cap(s)) > lo+uintptr(len(frame)) {
		t.Fatalf("a decoded slice (len %d, cap %d) is not a capped view inside its %d-byte frame", len(s), cap(s), len(frame))
	}
}

// FuzzClientFrames reads an arbitrary byte stream the way either end reads
// its connection, whole and a byte at a time, and decodes every frame.
// Properties: no panic; both readings yield the same frames; every byte
// slice a decoded frame holds is a capped view inside that frame; and a
// frame of every type, built from the input, decodes back equal. Seeds:
// testdata/fuzz/FuzzClientFrames.
func FuzzClientFrames(f *testing.F) {
	f.Fuzz(func(t *testing.T, stream []byte, id uint64, text string) {
		whole := wire.NewFrameReader(bytes.NewReader(stream), maxFrameBytes)
		chunked := wire.NewFrameReader(iotest.OneByteReader(bytes.NewReader(stream)), maxFrameBytes)
		for n := 0; ; n++ {
			payload, err := whole.Next()
			again, errAgain := chunked.Next()
			if (err == nil) != (errAgain == nil) || !bytes.Equal(payload, again) {
				t.Fatalf("frame %d: read whole (%v), a byte at a time (%v)", n, err, errAgain)
			}
			if err != nil {
				break
			}
			if cap(payload) != len(payload) {
				t.Fatalf("frame %d: %d-byte payload in a %d-byte buffer", n, len(payload), cap(payload))
			}
			f, err := decodeFrame(payload)
			if err != nil {
				continue
			}
			insideFrame(t, payload, f.envelope)
			if f.block != nil {
				for _, env := range f.block.Envelopes {
					insideFrame(t, payload, env)
				}
				for _, sig := range f.block.Signatures {
					insideFrame(t, payload, sig.Signature)
				}
			}
		}

		env := &fabric.Envelope{ChannelID: text, ClientID: text, TimestampUnixNano: int64(id), Payload: stream, Signature: []byte(text)}
		block := fabric.NewBlock(id, cryptoutil.Hash([]byte(text)), [][]byte{stream, []byte(text)})
		block.Signatures = []fabric.BlockSignature{{SignerID: text, Signature: stream}}
		seek := fabric.DeliverFrom(id).Through(id + uint64(len(text)))
		status := fabric.BroadcastStatus(id)
		var w wire.Writer
		putBroadcast(&w, id, env)
		putDeliver(&w, id, text, seek)
		putBlock(&w, id, block)
		want := []frame{
			{kind: msgBroadcast, id: id, envelope: env.Marshal()},
			{kind: msgDeliver, id: id, channel: text, seek: seek},
			{kind: msgBlock, id: id, block: block},
		}
		for _, kind := range []byte{msgCancel, msgPing, msgPong} {
			putID(&w, kind, id)
			want = append(want, frame{kind: kind, id: id})
		}
		for _, kind := range []byte{msgAck, msgStreamEnd} {
			putStatus(&w, kind, id, status, text)
			want = append(want, frame{kind: kind, id: id, status: status, detail: text})
		}
		fr := wire.NewFrameReader(iotest.HalfReader(bytes.NewReader(w.Bytes())), maxFrameBytes)
		for _, exp := range want {
			payload, err := fr.Next()
			if err != nil {
				t.Fatalf("type %d: %v", exp.kind, err)
			}
			got, err := decodeFrame(payload)
			if err != nil {
				t.Fatalf("type %d: %v", exp.kind, err)
			}
			if exp.block != nil {
				if got.block == nil || !bytes.Equal(got.block.Marshal(), exp.block.Marshal()) {
					t.Fatalf("block frame decoded to %+v", got.block)
				}
				got.block = exp.block
			}
			if !reflect.DeepEqual(got, exp) {
				t.Fatalf("type %d decoded to %+v, want %+v", exp.kind, got, exp)
			}
		}
	})
}
