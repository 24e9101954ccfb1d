package fabric

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/cryptoutil"
	"repro/internal/wire"
)

// BlockHeader is the part of a block every ordering node signs: the block
// number, the hash of the previous header, and the hash of this block's
// envelopes (Figure 1: each block carries the cryptographic hash of the
// previous block, so forging block j requires forging all of j+1..i).
type BlockHeader struct {
	Number   uint64
	PrevHash cryptoutil.Digest
	DataHash cryptoutil.Digest
}

// headerWireSize is the fixed encoding size of a header.
const headerWireSize = 8 + 2*cryptoutil.DigestSize

// appendTo appends the header's fixed layout to dst: the one encoding of a
// header, which Marshal, Hash and block encoding all use.
func (h *BlockHeader) appendTo(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, h.Number)
	dst = append(dst, h.PrevHash[:]...)
	return append(dst, h.DataHash[:]...)
}

// Marshal encodes the header in its fixed layout.
func (h *BlockHeader) Marshal() []byte {
	return h.appendTo(make([]byte, 0, headerWireSize))
}

func readHeader(r *wire.Reader) BlockHeader {
	var h BlockHeader
	h.Number = r.Uint64()
	copy(h.PrevHash[:], r.Raw(cryptoutil.DigestSize))
	copy(h.DataHash[:], r.Raw(cryptoutil.DigestSize))
	return h
}

// Hash returns the header digest: the value chained into the next block and
// the value ordering nodes sign. Signing the (constant-size) header rather
// than the whole block is why signature throughput is independent of
// envelope and block sizes (Section 6.1).
func (h *BlockHeader) Hash() cryptoutil.Digest {
	var buf [headerWireSize]byte
	return cryptoutil.Hash(h.appendTo(buf[:0]))
}

// BlockSignature is one ordering node's signature over the header hash.
type BlockSignature struct {
	SignerID  string
	Signature []byte
}

// Block is the unit appended to a channel's chain: a header, the ordered
// envelopes, and the ordering nodes' signatures.
type Block struct {
	Header     BlockHeader
	Envelopes  [][]byte // marshalled envelopes, in total order
	Signatures []BlockSignature
}

// ComputeDataHash hashes the ordered envelopes of a block.
func ComputeDataHash(envelopes [][]byte) cryptoutil.Digest {
	return cryptoutil.HashConcat(envelopes...)
}

// NewBlock assembles an unsigned block extending prevHeader with the given
// envelopes.
func NewBlock(number uint64, prevHash cryptoutil.Digest, envelopes [][]byte) *Block {
	return &Block{
		Header: BlockHeader{
			Number:   number,
			PrevHash: prevHash,
			DataHash: ComputeDataHash(envelopes),
		},
		Envelopes: envelopes,
	}
}

// MarshaledSize returns the exact length of the block's encoding, so an
// encoder can write the length prefix of a block field before the block.
func (b *Block) MarshaledSize() int {
	size := headerWireSize + wire.UvarintSize(uint64(len(b.Envelopes))) +
		wire.UvarintSize(uint64(len(b.Signatures)))
	for _, e := range b.Envelopes {
		size += wire.BytesSize(len(e))
	}
	for _, s := range b.Signatures {
		size += wire.BytesSize(len(s.SignerID)) + wire.BytesSize(len(s.Signature))
	}
	return size
}

// MarshalInto appends the block's encoding to an existing writer. The
// storage layer uses it to frame block records in pooled buffers without
// an intermediate allocation per put.
func (b *Block) MarshalInto(w *wire.Writer) {
	var header [headerWireSize]byte
	w.PutRaw(b.Header.appendTo(header[:0]))
	w.PutBytesSlice(b.Envelopes)
	w.PutUvarint(uint64(len(b.Signatures)))
	for _, s := range b.Signatures {
		w.PutString(s.SignerID)
		w.PutBytes(s.Signature)
	}
}

// Marshal encodes the block.
func (b *Block) Marshal() []byte {
	w := wire.NewWriter(b.MarshaledSize())
	b.MarshalInto(w)
	return w.Bytes()
}

// UnmarshalBlock decodes a block as a view of raw: envelopes and signatures
// alias it (see package wire on ownership).
func UnmarshalBlock(raw []byte) (*Block, error) {
	r := wire.NewReader(raw)
	b := &Block{
		Header:    readHeader(r),
		Envelopes: r.BytesSlice(),
	}
	n := r.Count(2) // an empty signer id and an empty signature
	if n > 1<<16 {
		return nil, errors.New("block: signature count out of range")
	}
	b.Signatures = make([]BlockSignature, 0, n)
	for i := 0; i < n; i++ {
		b.Signatures = append(b.Signatures, BlockSignature{
			SignerID:  r.String(),
			Signature: r.Bytes(),
		})
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("block: %w", err)
	}
	return b, nil
}

// CheckIntegrity verifies that the data hash matches the envelopes.
func (b *Block) CheckIntegrity() error {
	if got := ComputeDataHash(b.Envelopes); got != b.Header.DataHash {
		return fmt.Errorf("block %d: data hash mismatch", b.Header.Number)
	}
	return nil
}

// VerifySignatures counts how many of the block's signatures verify against
// the registry. Frontends configured for verification accept a block once
// f+1 signatures check out (footnote 8 of the paper).
func (b *Block) VerifySignatures(registry *cryptoutil.Registry) int {
	digest := b.Header.Hash()
	valid := 0
	seen := make(map[string]bool, len(b.Signatures))
	for _, s := range b.Signatures {
		if seen[s.SignerID] {
			continue
		}
		seen[s.SignerID] = true
		if registry.Verify(s.SignerID, digest.Bytes(), s.Signature) {
			valid++
		}
	}
	return valid
}

// VerifyRange authenticates a fetched block range [from, to) against a
// trusted anchor: anchorPrev is the PrevHash of trusted block `to` (i.e.
// the header hash of block to-1). Because every header embeds the previous
// header's hash, linking the top of the range into the anchor
// transitively authenticates every block below it, so a single untrusted
// peer cannot feed a forged or diverging history. For from == 0 the
// genesis block must additionally carry a zero previous hash. It is
// VerifyRangeLinks plus every block's CheckIntegrity.
func VerifyRange(blocks []*Block, from, to uint64, anchorPrev cryptoutil.Digest) error {
	if err := VerifyRangeLinks(blocks, from, to, anchorPrev); err != nil {
		return err
	}
	for _, b := range blocks {
		if err := b.CheckIntegrity(); err != nil {
			return err
		}
	}
	return nil
}

// VerifyRangeLinks is VerifyRange without the data hashes: the range's
// numbering, its hash links and its anchor. It is for a caller that ran
// CheckIntegrity on each block as it arrived, so that no envelope is
// hashed twice.
func VerifyRangeLinks(blocks []*Block, from, to uint64, anchorPrev cryptoutil.Digest) error {
	if to <= from {
		return fmt.Errorf("verify range: empty range %d..%d", from, to)
	}
	if uint64(len(blocks)) != to-from {
		return fmt.Errorf("verify range: %d blocks for range %d..%d", len(blocks), from, to-1)
	}
	if blocks[0].Header.Number != from {
		return fmt.Errorf("verify range: starts at block %d, want %d", blocks[0].Header.Number, from)
	}
	if from == 0 && !blocks[0].Header.PrevHash.IsZero() {
		return fmt.Errorf("verify range: genesis has non-zero previous hash")
	}
	if err := verifyLinks(blocks); err != nil {
		return err
	}
	if got := blocks[len(blocks)-1].Header.Hash(); got != anchorPrev {
		return fmt.Errorf("verify range: block %d does not link into the trusted anchor",
			to-1)
	}
	return nil
}

// VerifyChain checks the hash chain across consecutive blocks: block i+1
// must reference the hash of block i's header and carry a data hash
// matching its envelopes.
func VerifyChain(blocks []*Block) error {
	for _, b := range blocks {
		if err := b.CheckIntegrity(); err != nil {
			return err
		}
	}
	return verifyLinks(blocks)
}

// verifyLinks checks that each block follows its predecessor: the next
// number, and the predecessor's header hash as its previous hash.
func verifyLinks(blocks []*Block) error {
	for i := 1; i < len(blocks); i++ {
		b, prev := blocks[i], blocks[i-1]
		if b.Header.Number != prev.Header.Number+1 {
			return fmt.Errorf("block %d follows block %d: number gap",
				b.Header.Number, prev.Header.Number)
		}
		if b.Header.PrevHash != prev.Header.Hash() {
			return fmt.Errorf("block %d: previous-hash mismatch", b.Header.Number)
		}
	}
	return nil
}
