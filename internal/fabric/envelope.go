// Package fabric implements the Hyperledger Fabric substrate the ordering
// service plugs into (Sections 2-3 of the paper): envelopes and
// transactions, blocks with hash chaining, the block cutter, an append-only
// ledger, the versioned key/value state database, read/write sets,
// endorsement policies, MVCC validation, the chaincode engine with sample
// chaincodes, endorsing and committing peers, and a client SDK implementing
// the six-step HLF transaction protocol of Figure 2.
package fabric

import (
	"errors"
	"fmt"

	"repro/internal/cryptoutil"
	"repro/internal/wire"
)

// Envelope is the unit the ordering service totally orders (protocol step 4
// of Figure 2): a signed wrapper around a transaction proposal. The orderer
// never interprets Payload; only ChannelID is inspected, to demultiplex
// envelopes into per-channel chains.
type Envelope struct {
	// ChannelID names the private blockchain this envelope belongs to.
	ChannelID string
	// ClientID identifies the submitting client.
	ClientID string
	// TimestampUnixNano is the client's submission time.
	TimestampUnixNano int64
	// Payload is the marshalled Transaction (or arbitrary bytes in
	// benchmarks, which reproduce the paper's envelope-size sweeps).
	Payload []byte
	// Signature is the client's signature over the envelope digest.
	Signature []byte
}

// Marshal encodes the envelope deterministically.
func (e *Envelope) Marshal() []byte {
	w := wire.NewWriter(e.MarshaledSize())
	e.MarshalInto(w)
	return w.Bytes()
}

// MarshaledSize returns the exact length of the envelope's encoding.
func (e *Envelope) MarshaledSize() int {
	return wire.BytesSize(len(e.ChannelID)) + wire.BytesSize(len(e.ClientID)) + 8 +
		wire.BytesSize(len(e.Payload)) + wire.BytesSize(len(e.Signature))
}

// MarshalInto appends the envelope's encoding to an existing writer.
func (e *Envelope) MarshalInto(w *wire.Writer) {
	w.PutString(e.ChannelID)
	w.PutString(e.ClientID)
	w.PutInt64(e.TimestampUnixNano)
	w.PutBytes(e.Payload)
	w.PutBytes(e.Signature)
}

// UnmarshalEnvelope decodes an envelope as a view of b: payload and
// signature alias it.
func UnmarshalEnvelope(b []byte) (*Envelope, error) {
	r := wire.NewReader(b)
	e := &Envelope{
		ChannelID:         r.String(),
		ClientID:          r.String(),
		TimestampUnixNano: r.Int64(),
		Payload:           r.Bytes(),
		Signature:         r.Bytes(),
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("envelope: %w", err)
	}
	return e, nil
}

// SignedDigest returns the digest a client signs: everything except the
// signature itself.
func (e *Envelope) SignedDigest() cryptoutil.Digest {
	w := wire.NewWriter(len(e.ChannelID) + len(e.ClientID) + len(e.Payload) + 32)
	w.PutString(e.ChannelID)
	w.PutString(e.ClientID)
	w.PutInt64(e.TimestampUnixNano)
	w.PutBytes(e.Payload)
	return cryptoutil.Hash(w.Bytes())
}

// Sign fills in the envelope signature with the given key.
func (e *Envelope) Sign(key *cryptoutil.KeyPair) error {
	sig, err := key.SignDigest(e.SignedDigest())
	if err != nil {
		return fmt.Errorf("sign envelope: %w", err)
	}
	e.Signature = sig
	return nil
}

// ChannelOf cheaply extracts the channel id from a marshalled envelope
// without decoding the payload.
func ChannelOf(raw []byte) (string, error) {
	ch, err := PeekChannel(raw)
	return string(ch), err
}

// PeekChannel is ChannelOf as a view of raw: a hot path that only looks the
// channel up (m[string(ch)]) copies nothing.
func PeekChannel(raw []byte) ([]byte, error) {
	r := wire.NewReader(raw)
	ch := r.Bytes()
	if r.Err() != nil {
		return nil, fmt.Errorf("envelope channel: %w", r.Err())
	}
	return ch, nil
}

// PeekEnvelope extracts the channel and client ids, as views of raw,
// without decoding the payload. The ordering node uses it to demultiplex
// envelopes and to recognize time-to-cut markers on every envelope it
// executes, so it copies nothing.
func PeekEnvelope(raw []byte) (channel, client []byte, err error) {
	r := wire.NewReader(raw)
	channel = r.Bytes()
	client = r.Bytes()
	if r.Err() != nil {
		return nil, nil, fmt.Errorf("envelope peek: %w", r.Err())
	}
	return channel, client, nil
}

// PeekTimestamp extracts the client submission timestamp from a marshalled
// envelope without decoding the payload. The observability layer uses it as
// the broadcast-received anchor of the per-stage latency trace.
func PeekTimestamp(raw []byte) (int64, error) {
	r := wire.NewReader(raw)
	_ = r.String() // channel
	_ = r.String() // client
	ts := r.Int64()
	if r.Err() != nil {
		return 0, fmt.Errorf("envelope timestamp: %w", r.Err())
	}
	return ts, nil
}

// Version is the commit position that last wrote a key: the block number
// and the transaction index inside that block. HLF models its state as a
// versioned key/value store (Section 3).
type Version struct {
	BlockNum uint64
	TxNum    uint32
}

// Less orders versions lexicographically.
func (v Version) Less(o Version) bool {
	if v.BlockNum != o.BlockNum {
		return v.BlockNum < o.BlockNum
	}
	return v.TxNum < o.TxNum
}

// KVRead records that a transaction simulation read a key at a version
// (protocol step 2: the read set carries versioned keys).
type KVRead struct {
	Key     string
	Version Version
	Exists  bool // false when the key was absent at simulation time
}

// KVWrite records a state update produced by simulation.
type KVWrite struct {
	Key    string
	Value  []byte
	Delete bool
}

// RWSet is a transaction's read/write set.
type RWSet struct {
	Reads  []KVRead
	Writes []KVWrite
}

func (rw *RWSet) marshalInto(w *wire.Writer) {
	w.PutUvarint(uint64(len(rw.Reads)))
	for _, rd := range rw.Reads {
		w.PutString(rd.Key)
		w.PutUint64(rd.Version.BlockNum)
		w.PutUint32(rd.Version.TxNum)
		w.PutBool(rd.Exists)
	}
	w.PutUvarint(uint64(len(rw.Writes)))
	for _, wr := range rw.Writes {
		w.PutString(wr.Key)
		w.PutBytes(wr.Value)
		w.PutBool(wr.Delete)
	}
}

func readRWSet(r *wire.Reader) RWSet {
	var rw RWSet
	nReads := r.Count(14) // an empty key, version, flag
	if nReads > 1<<20 {
		return rw
	}
	rw.Reads = make([]KVRead, 0, nReads)
	for i := 0; i < nReads; i++ {
		rw.Reads = append(rw.Reads, KVRead{
			Key:     r.String(),
			Version: Version{BlockNum: r.Uint64(), TxNum: r.Uint32()},
			Exists:  r.Bool(),
		})
	}
	nWrites := r.Count(3) // an empty key, an empty value, flag
	if nWrites > 1<<20 {
		return rw
	}
	rw.Writes = make([]KVWrite, 0, nWrites)
	for i := 0; i < nWrites; i++ {
		rw.Writes = append(rw.Writes, KVWrite{
			Key:    r.String(),
			Value:  r.BytesCopy(),
			Delete: r.Bool(),
		})
	}
	return rw
}

// Marshal encodes the read/write set deterministically.
func (rw *RWSet) Marshal() []byte {
	w := wire.NewWriter(64)
	rw.marshalInto(w)
	return w.Bytes()
}

// UnmarshalRWSet decodes a read/write set.
func UnmarshalRWSet(b []byte) (RWSet, error) {
	r := wire.NewReader(b)
	rw := readRWSet(r)
	if err := r.Finish(); err != nil {
		return RWSet{}, fmt.Errorf("rwset: %w", err)
	}
	return rw, nil
}

// Endorsement is one endorsing peer's signature over a proposal response
// (protocol step 2).
type Endorsement struct {
	PeerID    string
	Signature []byte
}

// Transaction is the payload of an envelope in the full HLF flow: the
// simulated read/write sets plus the collected endorsements (protocol
// step 3).
type Transaction struct {
	TxID         string
	ChaincodeID  string
	RWSet        RWSet
	Response     []byte
	Endorsements []Endorsement
}

// ResponseDigest is the digest each endorsing peer signs: it binds the
// transaction id, chaincode, read/write sets, and the chaincode response.
func (tx *Transaction) ResponseDigest() cryptoutil.Digest {
	w := wire.NewWriter(128)
	w.PutString(tx.TxID)
	w.PutString(tx.ChaincodeID)
	tx.RWSet.marshalInto(w)
	w.PutBytes(tx.Response)
	return cryptoutil.Hash(w.Bytes())
}

// Marshal encodes the transaction.
func (tx *Transaction) Marshal() []byte {
	w := wire.NewWriter(256)
	w.PutString(tx.TxID)
	w.PutString(tx.ChaincodeID)
	tx.RWSet.marshalInto(w)
	w.PutBytes(tx.Response)
	w.PutUvarint(uint64(len(tx.Endorsements)))
	for _, e := range tx.Endorsements {
		w.PutString(e.PeerID)
		w.PutBytes(e.Signature)
	}
	return w.Bytes()
}

// UnmarshalTransaction decodes a transaction.
func UnmarshalTransaction(b []byte) (*Transaction, error) {
	r := wire.NewReader(b)
	tx := &Transaction{
		TxID:        r.String(),
		ChaincodeID: r.String(),
		RWSet:       readRWSet(r),
		Response:    r.BytesCopy(),
	}
	n := r.Count(2) // an empty peer id and an empty signature
	if n > 1<<16 {
		return nil, errors.New("transaction: endorsement count out of range")
	}
	tx.Endorsements = make([]Endorsement, 0, n)
	for i := 0; i < n; i++ {
		tx.Endorsements = append(tx.Endorsements, Endorsement{
			PeerID:    r.String(),
			Signature: r.BytesCopy(),
		})
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("transaction: %w", err)
	}
	return tx, nil
}
