package core

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/cryptoutil"
	"repro/internal/fabric"
	"repro/internal/wire"
)

// marshal encodes a response whose blocks are already marshalled: the
// layout marshalFetchResponse must reproduce byte for byte.
func (p fetchResponse) marshal() []byte {
	w := wire.NewWriter(32)
	w.PutUint64(p.ReqID)
	w.PutUint64(p.From)
	w.PutUint64(p.Floor)
	w.PutBytesSlice(p.Blocks)
	return w.Bytes()
}

// randomBlock is a block with 0 to 40 envelopes of 0 to 300 bytes and 0 to
// 4 signatures, so every uvarint length prefix takes one byte or two.
func randomBlock(rng *rand.Rand, num uint64) *fabric.Block {
	field := func(max int) []byte {
		b := make([]byte, rng.Intn(max+1))
		rng.Read(b)
		return b
	}
	envs := make([][]byte, rng.Intn(41))
	for i := range envs {
		envs[i] = field(300)
	}
	var prev cryptoutil.Digest
	rng.Read(prev[:])
	b := fabric.NewBlock(num, prev, envs)
	for i := rng.Intn(5); i > 0; i-- {
		b.Signatures = append(b.Signatures, fabric.BlockSignature{SignerID: string(field(20)), Signature: field(200)})
	}
	return b
}

// A node answers a fetch with each block written straight into the
// response: the bytes are those of marshalling every block and then the
// response, for whole and signature-only answers, and the one allocation
// is the response itself, however many blocks it carries. What serve
// allocates beyond that is the log read.
func TestFetchResponseEncodesBlocksInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	blocks := make([]*fabric.Block, 100)
	for i := range blocks {
		blocks[i] = randomBlock(rng, uint64(i))
	}
	for _, sigsOnly := range []bool{false, true} {
		for _, n := range []int{0, 1, 7, len(blocks)} {
			want := fetchResponse{ReqID: 9, From: 3, Floor: 2}
			for _, b := range blocks[:n] {
				if sigsOnly {
					b = &fabric.Block{Header: b.Header, Signatures: b.Signatures}
				}
				want.Blocks = append(want.Blocks, b.Marshal())
			}
			got := marshalFetchResponse(9, 3, 2, blocks[:n], sigsOnly)
			if !bytes.Equal(got, want.marshal()) {
				t.Fatalf("%d blocks (sigsOnly %v): the response differs from marshalling each block", n, sigsOnly)
			}
			if cap(got) != len(got) {
				t.Fatalf("%d blocks (sigsOnly %v): %d-byte response in a %d-byte buffer", n, sigsOnly, len(got), cap(got))
			}
			if allocs := testing.AllocsPerRun(20, func() {
				marshalFetchResponse(9, 3, 2, blocks[:n], sigsOnly)
			}); allocs != 1 {
				t.Fatalf("%d blocks (sigsOnly %v): %.0f allocations, want 1 (the response)", n, sigsOnly, allocs)
			}
		}
	}
}
