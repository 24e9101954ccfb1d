package fabric

import (
	"encoding/hex"
	"testing"
	"testing/quick"

	"repro/internal/cryptoutil"
)

func testEnvelopes(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		env := &Envelope{ChannelID: "ch", ClientID: "c", Payload: []byte{byte(i)}}
		out[i] = env.Marshal()
	}
	return out
}

func TestBlockRoundTrip(t *testing.T) {
	in := NewBlock(7, cryptoutil.Hash([]byte("prev")), testEnvelopes(3))
	in.Signatures = []BlockSignature{{SignerID: "node0", Signature: []byte("sig")}}
	out, err := UnmarshalBlock(in.Marshal())
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if out.Header != in.Header || len(out.Envelopes) != 3 || len(out.Signatures) != 1 {
		t.Fatalf("round trip mismatch: %+v", out)
	}
	if err := out.CheckIntegrity(); err != nil {
		t.Fatalf("integrity: %v", err)
	}
}

func TestBlockHeaderHashIsConstantSize(t *testing.T) {
	// The signature input is the header hash, whose preimage has fixed
	// size regardless of envelope count or size — the reason Figure 6's
	// signing throughput is independent of block content (Section 6.1).
	small := NewBlock(0, cryptoutil.Digest{}, testEnvelopes(1))
	big := NewBlock(0, cryptoutil.Digest{}, [][]byte{make([]byte, 1<<20)})
	if len(small.Header.Marshal()) != len(big.Header.Marshal()) {
		t.Fatal("header encoding size depends on content")
	}
	if len(small.Header.Marshal()) != headerWireSize {
		t.Fatalf("header size = %d, want %d", len(small.Header.Marshal()), headerWireSize)
	}
}

// The header hash is what every node signs and every block chains to, so
// its bytes must not move: the hex below is the hash of this header before
// Hash stopped allocating. Hashing a header allocates nothing.
func TestBlockHeaderHashGolden(t *testing.T) {
	h := BlockHeader{
		Number:   0x0102030405060708,
		PrevHash: cryptoutil.Hash([]byte("prev")),
		DataHash: cryptoutil.Hash([]byte("data")),
	}
	const want = "b188d79d8c0cb76aa0250ef7d6b685356ce12fbfc3b0933fb7ecbf8eabb7f577"
	if got := h.Hash(); hex.EncodeToString(got[:]) != want {
		t.Fatalf("header hash = %x, want %s", got, want)
	}
	if got := h.Hash(); got != cryptoutil.Hash(h.Marshal()) {
		t.Fatal("Hash is not the hash of Marshal")
	}
	if n := testing.AllocsPerRun(20, func() { h.Hash() }); n != 0 {
		t.Fatalf("BlockHeader.Hash makes %.0f allocations, want 0", n)
	}
}

func TestBlockIntegrityDetectsTampering(t *testing.T) {
	b := NewBlock(0, cryptoutil.Digest{}, testEnvelopes(2))
	if err := b.CheckIntegrity(); err != nil {
		t.Fatalf("fresh block fails integrity: %v", err)
	}
	b.Envelopes[0][0] ^= 0xff
	if err := b.CheckIntegrity(); err == nil {
		t.Fatal("tampered envelope not detected")
	}
}

func TestVerifyChain(t *testing.T) {
	b0 := NewBlock(0, cryptoutil.Digest{}, testEnvelopes(2))
	b1 := NewBlock(1, b0.Header.Hash(), testEnvelopes(3))
	b2 := NewBlock(2, b1.Header.Hash(), testEnvelopes(1))
	if err := VerifyChain([]*Block{b0, b1, b2}); err != nil {
		t.Fatalf("valid chain rejected: %v", err)
	}
	// Break the link.
	bad := NewBlock(2, b0.Header.Hash(), testEnvelopes(1))
	if err := VerifyChain([]*Block{b0, b1, bad}); err == nil {
		t.Fatal("broken chain accepted")
	}
	// Gap in numbering.
	b3 := NewBlock(4, b2.Header.Hash(), testEnvelopes(1))
	if err := VerifyChain([]*Block{b0, b1, b2, b3}); err == nil {
		t.Fatal("numbering gap accepted")
	}
}

// TestVerifyRangeLinksLeavesBodiesToTheCaller: VerifyRange is
// VerifyRangeLinks plus each block's data hash, so a body that does not
// hash to its header fails only the former, and a broken link or anchor
// fails both.
func TestVerifyRangeLinksLeavesBodiesToTheCaller(t *testing.T) {
	b0 := NewBlock(0, cryptoutil.Digest{}, testEnvelopes(2))
	b1 := NewBlock(1, b0.Header.Hash(), testEnvelopes(3))
	b2 := NewBlock(2, b1.Header.Hash(), testEnvelopes(1))
	blocks, anchor := []*Block{b1, b2}, b2.Header.Hash()
	for _, verify := range []func([]*Block, uint64, uint64, cryptoutil.Digest) error{VerifyRange, VerifyRangeLinks} {
		if err := verify(blocks, 1, 3, anchor); err != nil {
			t.Fatalf("valid range rejected: %v", err)
		}
		if err := verify(blocks, 1, 3, b1.Header.Hash()); err == nil {
			t.Fatal("range accepted against the wrong anchor")
		}
		if err := verify([]*Block{NewBlock(1, b0.Header.Hash(), testEnvelopes(4)), b2}, 1, 3, anchor); err == nil {
			t.Fatal("range with a broken link accepted")
		}
	}
	b1.Envelopes[0][0] ^= 0xff
	if err := VerifyRangeLinks(blocks, 1, 3, anchor); err != nil {
		t.Fatalf("VerifyRangeLinks checked a body: %v", err)
	}
	if err := VerifyRange(blocks, 1, 3, anchor); err == nil {
		t.Fatal("VerifyRange accepted a body that does not hash to its header")
	}
}

func TestChainTamperingCascades(t *testing.T) {
	// Forging block j requires forging all subsequent blocks (Section 2).
	blocks := make([]*Block, 4)
	prev := cryptoutil.Digest{}
	for i := range blocks {
		blocks[i] = NewBlock(uint64(i), prev, testEnvelopes(2))
		prev = blocks[i].Header.Hash()
	}
	if err := VerifyChain(blocks); err != nil {
		t.Fatalf("valid chain rejected: %v", err)
	}
	// Replace block 1's data and fix only block 1's own data hash: the
	// chain must still fail at block 2's prev-hash link.
	blocks[1].Envelopes = testEnvelopes(3)
	blocks[1].Header.DataHash = ComputeDataHash(blocks[1].Envelopes)
	if err := VerifyChain(blocks); err == nil {
		t.Fatal("mid-chain forgery accepted")
	}
}

func TestBlockSignatureVerification(t *testing.T) {
	registry := cryptoutil.NewRegistry()
	keys := make([]*cryptoutil.KeyPair, 3)
	for i := range keys {
		kp, err := cryptoutil.GenerateKeyPair()
		if err != nil {
			t.Fatalf("keygen: %v", err)
		}
		keys[i] = kp
		registry.Register(string(rune('a'+i)), kp.Public())
	}
	b := NewBlock(0, cryptoutil.Digest{}, testEnvelopes(2))
	digest := b.Header.Hash()
	for i, kp := range keys {
		sig, err := kp.SignDigest(digest)
		if err != nil {
			t.Fatalf("sign: %v", err)
		}
		b.Signatures = append(b.Signatures, BlockSignature{
			SignerID: string(rune('a' + i)), Signature: sig,
		})
	}
	// Add a bogus signature and a duplicate signer.
	b.Signatures = append(b.Signatures,
		BlockSignature{SignerID: "z", Signature: []byte("junk")},
		BlockSignature{SignerID: "a", Signature: b.Signatures[0].Signature},
	)
	if got := b.VerifySignatures(registry); got != 3 {
		t.Fatalf("VerifySignatures = %d, want 3", got)
	}
}

func TestDataHashProperty(t *testing.T) {
	f := func(envelopes [][]byte) bool {
		return ComputeDataHash(envelopes) == ComputeDataHash(envelopes)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Boundary separation.
	a := ComputeDataHash([][]byte{[]byte("ab"), []byte("c")})
	b := ComputeDataHash([][]byte{[]byte("a"), []byte("bc")})
	if a == b {
		t.Fatal("data hash does not separate envelope boundaries")
	}
}

// UnmarshalBlock returns a view: envelopes and signatures alias the input,
// and a signature count the input cannot hold is refused before anything is
// sized by it.
func TestUnmarshalBlockAliasesAndBoundsCounts(t *testing.T) {
	in := NewBlock(7, cryptoutil.Hash([]byte("prev")), testEnvelopes(3))
	in.Signatures = []BlockSignature{{SignerID: "node0", Signature: []byte("sig")}}
	raw := in.Marshal()
	out, err := UnmarshalBlock(raw)
	if err != nil {
		t.Fatal(err)
	}
	sig := out.Signatures[0].Signature
	if &sig[len(sig)-1] != &raw[len(raw)-1] {
		t.Fatal("UnmarshalBlock copied the signature")
	}
	env := out.Envelopes[0]
	if &env[0] != &raw[headerWireSize+2] {
		t.Fatal("UnmarshalBlock copied the envelopes")
	}

	hostile := NewBlock(7, cryptoutil.Digest{}, nil).Marshal()
	hostile = append(hostile[:len(hostile)-1], 0xff, 0xff, 0x03) // 65535 signatures, none present
	if _, err := UnmarshalBlock(hostile); err == nil {
		t.Fatal("a signature count beyond the input decoded")
	}
}
