package core

import (
	"bytes"
	"reflect"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/consensus"
	"repro/internal/cryptoutil"
	"repro/internal/fabric"
	"repro/internal/obs"
)

// Fuzz targets for the decoders on the fetch path — what a node decodes
// from a peer's FetchBlocks request, and a node or frontend from a
// response and each block in it — with seed corpora in testdata/fuzz.
// Properties: no panic; an accepted input re-marshals to a value that
// decodes equal; every byte slice a decoder returns is a capped view
// inside the input, so neither reading nor appending to it reaches past
// the bytes that were sent.

func FuzzUnmarshalFetchRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		q, err := unmarshalFetchRequest(in)
		if err != nil {
			return
		}
		again, err := unmarshalFetchRequest(q.marshal())
		if err != nil || again != q {
			t.Fatalf("%+v re-marshals to %+v (%v)", q, again, err)
		}
	})
}

func FuzzUnmarshalFetchResponse(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		p, err := unmarshalFetchResponse(in)
		if err != nil {
			return
		}
		for _, b := range p.Blocks {
			insideInput(t, in, b)
		}
		again, err := unmarshalFetchResponse(p.marshal())
		if err != nil || !reflect.DeepEqual(again, p) {
			t.Fatalf("%+v re-marshals to %+v (%v)", p, again, err)
		}
	})
}

func FuzzUnmarshalBlock(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		b, err := fabric.UnmarshalBlock(in)
		if err != nil {
			return
		}
		for _, env := range b.Envelopes {
			insideInput(t, in, env)
		}
		for _, sig := range b.Signatures {
			insideInput(t, in, sig.Signature)
		}
		if size, raw := b.MarshaledSize(), b.Marshal(); size != len(raw) {
			t.Fatalf("MarshaledSize %d for a %d-byte encoding", size, len(raw))
		}
		again, err := fabric.UnmarshalBlock(b.Marshal())
		if err != nil || !reflect.DeepEqual(again, b) {
			t.Fatalf("%+v re-marshals to %+v (%v)", b, again, err)
		}
	})
}

// insideInput fails unless s is a capped view into in: every byte it can
// reach, up to its capacity, is a byte of in.
func insideInput(t *testing.T, in, s []byte) {
	t.Helper()
	if cap(s) == 0 {
		return
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(in)))
	at := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	if cap(s) != len(s) || at < lo || at+uintptr(cap(s)) > lo+uintptr(len(in)) {
		t.Fatalf("a decoded slice (len %d, cap %d) is not a capped view inside the %d-byte input", len(s), cap(s), len(in))
	}
}

// fuzzChainLen is the length of the honest chain FuzzFrontendCopies offers.
const fuzzChainLen = 6

// copiesFixture is FuzzFrontendCopies' honest chain, each node's signature
// on every header, and per block a conflicting variant the byzantine node
// signs genuinely — built once, since signing dominates an input's cost.
type copiesFixture struct {
	registry *cryptoutil.Registry
	chain    []*fabric.Block
	sigs     [][][]byte // sigs[block][node]
	forged   [][]*fabric.Block
}

var (
	copiesOnce sync.Once
	copies     copiesFixture
)

func frontendCopiesFixture() *copiesFixture {
	copiesOnce.Do(func() {
		copies.registry = cryptoutil.NewRegistry()
		keys := make([]*cryptoutil.KeyPair, 4)
		for i := range keys {
			key, err := cryptoutil.GenerateKeyPair()
			if err != nil {
				panic(err)
			}
			keys[i] = key
			copies.registry.Register(string(consensus.ReplicaID(i).Addr()), key.Public())
		}
		sign := func(h fabric.BlockHeader, node int) []byte {
			sig, err := keys[node].SignDigest(h.Hash())
			if err != nil {
				panic(err)
			}
			return sig
		}
		var prev cryptoutil.Digest
		for num := uint64(0); num < fuzzChainLen; num++ {
			b := fabric.NewBlock(num, prev, [][]byte{feEnv(2 * int(num)), feEnv(2*int(num) + 1)})
			prev = b.Header.Hash()
			copies.chain = append(copies.chain, b)
			sigs := make([][]byte, 4)
			forged := make([]*fabric.Block, 4)
			for node := range keys {
				sigs[node] = sign(b.Header, node)
				fb := fabric.NewBlock(num, b.Header.PrevHash, [][]byte{feEnv(1000 + int(num))})
				fb.Signatures = []fabric.BlockSignature{{SignerID: string(consensus.ReplicaID(node).Addr()), Signature: sign(fb.Header, node)}}
				forged[node] = fb
			}
			copies.sigs = append(copies.sigs, sigs)
			copies.forged = append(copies.forged, forged)
		}
	})
	return &copies
}

// FuzzFrontendCopies drives a frontend's release rule with copies from four
// nodes (f = 1): whole and header-only copies of an honest chain, in any
// order and any number of times, and from one byzantine node also tampered
// bodies, conflicting blocks it signs genuinely, header-only votes for
// those, bad signatures, empty bodies and arbitrary bytes. Then every
// honest node sends every block whole. Properties, under both release
// rules (2f+1 copies, f+1 verified signatures): the released stream is the
// honest chain from the block the cursor started at to its end, in order
// and gap-free; every released body hashes to its header's data hash; and
// under verification every released block carries f+1 valid signatures.
// Input: byte 0 picks the rule (bit 0) and the byzantine node (bits 1-2);
// then each pair of bytes is one copy (see the switch below).
func FuzzFrontendCopies(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		fx := frontendCopiesFixture()
		if len(in) == 0 {
			return
		}
		verify, byz := in[0]&1 == 1, int(in[0]>>1)&3
		in = in[1:]
		fe := &Frontend{
			cfg:      FrontendConfig{ID: "fe", Replicas: ids4(), F: 1, VerifySignatures: verify, Registry: fx.registry},
			released: 3,
			metrics:  (*obs.FrontendMetrics)(nil).OrNop(),
			chans:    make(map[string]*feChannel),
			logs:     newReleaseLogs(nil, ErrFrontendClosed),
		}
		if verify {
			fe.released = 2
		}
		var released []*fabric.Block
		fe.OnBlock(func(b *fabric.Block) { released = append(released, b) })
		node := func(i int) string { return string(consensus.ReplicaID(i).Addr()) }
		// honest is node i's copy of block num, whole or header-only.
		honest := func(i, num int, whole bool) *fabric.Block {
			b := &fabric.Block{
				Header:     fx.chain[num].Header,
				Signatures: []fabric.BlockSignature{{SignerID: node(i), Signature: fx.sigs[num][i]}},
			}
			if whole {
				b.Envelopes = fx.chain[num].Envelopes
			}
			return b
		}

		for len(in) >= 2 {
			op, arg := in[0], in[1]
			in = in[2:]
			sender, num := int(op&3), int(arg)%fuzzChainLen
			kind := op >> 2 & 7
			if sender != byz {
				fe.onBlockCopy(node(sender), "ch", honest(sender, num, kind&1 == 0), 0)
				continue
			}
			var b *fabric.Block
			switch kind {
			case 0, 1: // an honest copy
				b = honest(sender, num, kind == 0)
			case 2: // the honest header over a tampered body
				b = honest(sender, num, true)
				b.Envelopes = [][]byte{{arg}}
			case 3: // a conflicting block, genuinely signed
				fb := fx.forged[num][sender]
				b = &fabric.Block{Header: fb.Header, Envelopes: fb.Envelopes, Signatures: fb.Signatures}
			case 4: // a header-only vote for it
				fb := fx.forged[num][sender]
				b = &fabric.Block{Header: fb.Header, Signatures: fb.Signatures}
			case 5: // the honest header with a bad signature
				b = honest(sender, num, arg&1 == 0)
				b.Signatures = []fabric.BlockSignature{{SignerID: node(sender), Signature: []byte{arg}}}
			case 6: // an empty body under the honest prev hash
				b = fabric.NewBlock(uint64(num), fx.chain[num].Header.PrevHash, nil)
			case 7: // arbitrary bytes
				raw := in[:min(int(arg), len(in))]
				in = in[len(raw):]
				var err error
				if b, err = fabric.UnmarshalBlock(raw); err != nil {
					continue
				}
			}
			fe.onBlockCopy(node(sender), "ch", b, 0)
		}
		for num := range fuzzChainLen {
			for i := 0; i < 4; i++ {
				if i != byz {
					fe.onBlockCopy(node(i), "ch", honest(i, num, true), 0)
				}
			}
		}

		if len(released) == 0 {
			t.Fatal("the honest chain, sent whole by every honest node, released nothing")
		}
		start := int(released[0].Header.Number)
		if start+len(released) != fuzzChainLen {
			t.Fatalf("released %d blocks from block %d, want the chain's %d from there", len(released), start, fuzzChainLen-start)
		}
		for i, b := range released {
			want := fx.chain[start+i]
			if b.Header != want.Header || !slices.EqualFunc(b.Envelopes, want.Envelopes, bytes.Equal) {
				t.Fatalf("released #%d is block %d %v, want honest block %d", i, b.Header.Number, b.Header.Hash(), start+i)
			}
			if err := b.CheckIntegrity(); err != nil {
				t.Fatalf("released a body that fails its header: %v", err)
			}
			if verify && b.VerifySignatures(fx.registry) < 2 {
				t.Fatalf("released block %d with %d valid signatures, want f+1", b.Header.Number, b.VerifySignatures(fx.registry))
			}
		}
	})
}
