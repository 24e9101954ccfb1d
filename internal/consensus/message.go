package consensus

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/cryptoutil"
	"repro/internal/wire"
)

// Transport message types used by the consensus layer. The ordering-service
// layer (internal/core) uses types >= 64; the two ranges never collide on a
// shared network.
const (
	msgRequest uint16 = iota + 1
	msgPropose
	msgWrite
	msgAccept
	msgStop
	msgStopData
	msgSync
	msgStateRequest
	msgStateReply
	_ // 10 was the retired client reply; the values that follow keep their wire numbers
	msgProposeFetch
)

// RequestMessageType is the transport type of client request frames,
// exported for components that submit requests without a full Client (the
// ordering node's time-to-cut markers, a joining node's admission request).
const RequestMessageType = msgRequest

// A request frame is the payload of every RequestMessageType message: the
// client id and the first sequence number, once, then a uvarint count and
// that many length-prefixed operations; the i-th operation's sequence
// number is first + i. A replica pools each operation as a view of the
// frame, under the frame's client (see Replica.onRequests). A Client sends
// every request queued since its previous send as one frame, the same
// payload to every replica.
//
// Layout: PutString(client), PutUint64(first), PutUvarint(n), then n
// PutBytes(op).

// maxRequestFrameBytes bounds the frames a Client builds: a longer queue
// leaves as several frames. (A single request larger than this is sent
// alone in a frame of its own.)
const maxRequestFrameBytes = 1 << 20

// EncodeRequest encodes a one-request frame: a payload sent with
// RequestMessageType to every replica enters the request pool like any
// client submission.
func EncodeRequest(clientID string, seq uint64, op []byte) []byte {
	frame, _ := encodeRequestFrame(clientID, []queuedRequest{{seq: seq, op: op}})
	return frame
}

// queuedRequest is a client operation waiting for its client's sender.
type queuedRequest struct {
	seq uint64
	op  []byte
}

// encodeRequestFrame encodes the leading requests of reqs into a frame, as
// many as have consecutive sequence numbers and fit in maxRequestFrameBytes
// but at least one, and reports how many it took. The frame is sized
// exactly and each operation written into it once: no intermediate
// encoding, no growth.
func encodeRequestFrame(clientID string, reqs []queuedRequest) ([]byte, int) {
	header := wire.BytesSize(len(clientID)) + 8
	n, body := 0, 0
	for i, rq := range reqs {
		op := wire.BytesSize(len(rq.op))
		if n > 0 && (rq.seq != reqs[0].seq+uint64(i) ||
			header+binary.MaxVarintLen64+body+op > maxRequestFrameBytes) {
			break
		}
		n++
		body += op
	}
	w := wire.NewWriter(header + wire.UvarintSize(uint64(n)) + body)
	w.PutString(clientID)
	w.PutUint64(reqs[0].seq)
	w.PutUvarint(uint64(n))
	for _, rq := range reqs[:n] {
		w.PutBytes(rq.op)
	}
	return w.Bytes(), n
}

// readFrameHeader reads a request frame's client id (a view of the frame),
// first sequence number and operation count, leaving rd at the first
// operation. A count the frame cannot hold, or whose run of sequence
// numbers would pass 2^64-1, is an error.
func readFrameHeader(rd *wire.Reader) (client []byte, first uint64, n int, err error) {
	client, first, n = rd.Bytes(), rd.Uint64(), rd.Count(1)
	if err := rd.Err(); err != nil {
		return nil, 0, 0, fmt.Errorf("request frame: %w", err)
	}
	if n > 0 && first > math.MaxUint64-uint64(n-1) {
		return nil, 0, 0, fmt.Errorf("request frame: %d sequence numbers from %d pass 2^64-1", n, first)
	}
	return client, first, n, nil
}

// request is a client operation submitted for total ordering. Clients send
// requests to every replica (Figure 3: "Clients send their requests to all
// replicas"). A replica holds each request as one such value, from the
// frame it pooled it from to the checkpoint that retires its batch: a
// batch is a []request. Every message that carries a batch encodes a
// request as putRequest writes it, the entry the batch digest is over.
type request struct {
	ClientID string // the client's transport address
	Seq      uint64 // per-client sequence number for deduplication
	Op       []byte // opaque operation (an HLF envelope in the ordering service)
}

// marshal encodes the request as a batch entry.
func (rq *request) marshal() []byte {
	w := wire.NewWriter(requestSize(rq.ClientID, rq.Op))
	putRequest(w, rq.ClientID, rq.Seq, rq.Op)
	return w.Bytes()
}

// requestSize is the exact length of putRequest's encoding.
func requestSize(clientID string, op []byte) int {
	return wire.BytesSize(len(clientID)) + 8 + wire.BytesSize(len(op))
}

func putRequest(w *wire.Writer, clientID string, seq uint64, op []byte) {
	w.PutString(clientID)
	w.PutUint64(seq)
	w.PutBytes(op)
}

// entrySize is the length of rq as a length-prefixed batch entry.
func (rq *request) entrySize() int { return wire.BytesSize(requestSize(rq.ClientID, rq.Op)) }

// putEntry writes rq as a length-prefixed batch entry: what PutBytes of its
// marshal writes.
func (rq *request) putEntry(w *wire.Writer) {
	w.PutUvarint(uint64(requestSize(rq.ClientID, rq.Op)))
	putRequest(w, rq.ClientID, rq.Seq, rq.Op)
}

// putBatch writes a batch as PutBytesSlice writes its entries: a uvarint
// count, then every request as a length-prefixed entry.
func putBatch(w *wire.Writer, batch []request) {
	w.PutUvarint(uint64(len(batch)))
	for i := range batch {
		batch[i].putEntry(w)
	}
}

// readBatch reads a batch putBatch wrote, as views of rd's buffer: the
// requests' operations alias it, and consecutive requests of one client
// share one copy of its id. An entry that is not a request fails the read.
func readBatch(rd *wire.Reader) ([]request, error) {
	batch := make([]request, rd.Count(minEntrySize))
	for i := range batch {
		id, seq, op, err := parseRequest(rd.Bytes())
		if rd.Err() != nil {
			return nil, rd.Err()
		}
		if err != nil {
			return nil, err
		}
		batch[i] = request{ClientID: sameString(batch[:i], id), Seq: seq, Op: op}
	}
	return batch, rd.Err()
}

// minEntrySize is the length of the shortest batch entry: its length
// prefix, an empty client id, the sequence number and an empty operation.
const minEntrySize = 1 + 1 + 8 + 1

// sameString returns id as a string, the previous request's client id when
// it is that one.
func sameString(prev []request, id []byte) string {
	if n := len(prev); n > 0 && prev[n-1].ClientID == string(id) {
		return prev[n-1].ClientID
	}
	return string(id)
}

// unmarshalRequest decodes a request as a view of b: Op aliases it, and the
// client id is the string known (a replica's client records) holds for it.
func unmarshalRequest(b []byte, known map[string]*clientRecord) (request, error) {
	id, seq, op, err := parseRequest(b)
	if err != nil {
		return request{}, err
	}
	rq := request{Seq: seq, Op: op}
	if c, ok := known[string(id)]; ok {
		rq.ClientID = c.client
	} else {
		rq.ClientID = string(id)
	}
	return rq, nil
}

// parseRequest decodes a request's fields as views of b.
func parseRequest(b []byte) (id []byte, seq uint64, op []byte, err error) {
	r := wire.NewReader(b)
	id = r.Bytes()
	seq, op = r.Uint64(), r.Bytes()
	if err := r.Finish(); err != nil {
		return nil, 0, nil, fmt.Errorf("request: %w", err)
	}
	return id, seq, op, nil
}

// proposeMsg is the leader's batch proposal for one consensus instance.
// Digest is the batchDigest of its requests.
//
// On the wire an entry travels either as a reference to a request the
// receiver pooled itself — its (client, seq): clients send every request to
// every replica (Figure 3), so a follower already holds what the leader
// proposes — or as the request itself. The leader sends a reference for
// every request, so a request's bytes leave the leader once, in its block;
// a follower that cannot resolve a reference asks the leader for the
// entries inline (msgProposeFetch). Votes, certificates, SYNC, the decision
// log and checkpoints carry full entries as before: the digest is over
// them, not over the references.
//
// Layout: Regency, Seq, Digest, a uvarint count, then per entry a kind byte
// and either the length-prefixed request (entryInline) or the
// length-prefixed client id and a uvarint seq (entryRef).
type proposeMsg struct {
	Regency int32
	Seq     int64
	Digest  cryptoutil.Digest
	// Batch is the proposed requests, which marshal and marshalRefs
	// encode. A decoded message leaves it empty: its entries are in Entries,
	// for the receiver to resolve into requests (Replica.resolve).
	Batch []request
	// Entries are a decoded message's entries, and refs how many of them
	// travelled as references.
	Entries []proposeEntry
	refs    int
	// payload is what a received PROPOSE was decoded from (nil for one
	// this replica built).
	payload []byte
}

// proposeEntry is one entry of a decoded PROPOSE: a request's client id and
// sequence number, and its operation where the entry travelled inline (ref
// false). client and op are views of the payload.
type proposeEntry struct {
	client []byte
	seq    uint64
	op     []byte
	ref    bool
}

// Entry kinds of a PROPOSE.
const (
	entryInline byte = iota
	entryRef
)

// marshal encodes m with every entry inline.
func (m *proposeMsg) marshal() []byte { return m.encode(false) }

// marshalRefs encodes m with every entry a reference.
func (m *proposeMsg) marshalRefs() []byte { return m.encode(true) }

// encode encodes m, sized exactly, with every entry a reference (refs) or
// every entry inline.
func (m *proposeMsg) encode(refs bool) []byte {
	size := 4 + 8 + cryptoutil.DigestSize + wire.UvarintSize(uint64(len(m.Batch)))
	for i := range m.Batch {
		rq := &m.Batch[i]
		if refs {
			size += 1 + wire.BytesSize(len(rq.ClientID)) + wire.UvarintSize(rq.Seq)
		} else {
			size += 1 + rq.entrySize()
		}
	}
	w := wire.NewWriter(size)
	w.PutInt32(m.Regency)
	w.PutInt64(m.Seq)
	w.PutRaw(m.Digest[:])
	w.PutUvarint(uint64(len(m.Batch)))
	for i := range m.Batch {
		rq := &m.Batch[i]
		if refs {
			w.PutByte(entryRef)
			w.PutString(rq.ClientID)
			w.PutUvarint(rq.Seq)
		} else {
			w.PutByte(entryInline)
			rq.putEntry(w)
		}
	}
	return w.Bytes()
}

// unmarshalPropose decodes b into m, reusing the storage of m's entries:
// whatever m held before is overwritten (or cleared), so the message decoded
// is the same as into a zero proposeMsg. An inline entry that is not a
// request fails the decode. On error m holds no useful value.
func unmarshalPropose(b []byte, m *proposeMsg) error {
	r := wire.NewReader(b)
	*m = proposeMsg{Regency: r.Int32(), Seq: r.Int64(), Entries: m.Entries, payload: b}
	copy(m.Digest[:], r.Raw(cryptoutil.DigestSize))
	m.Entries = sized(m.Entries, r.Count(2)) // a kind byte and an empty entry
	for i := 0; i < len(m.Entries) && r.Err() == nil; i++ {
		e := &m.Entries[i]
		switch kind := r.Byte(); kind {
		case entryInline:
			var err error
			if e.client, e.seq, e.op, err = parseRequest(r.Bytes()); err != nil && r.Err() == nil {
				return fmt.Errorf("propose: entry %d: %w", i, err)
			}
		case entryRef:
			e.client, e.seq, e.ref = r.Bytes(), r.Uvarint(), true
			m.refs++
		default:
			return fmt.Errorf("propose: entry %d of unknown kind %d", i, kind)
		}
	}
	if err := r.Finish(); err != nil {
		return fmt.Errorf("propose: %w", err)
	}
	return nil
}

// proposeFetchMsg is a follower's request for the PROPOSE of instance Seq in
// Regency with every entry inline: one whose references it could not
// resolve from its pool.
type proposeFetchMsg struct {
	Regency int32
	Seq     int64
}

func (m *proposeFetchMsg) marshal() []byte {
	w := wire.NewWriter(12)
	w.PutInt32(m.Regency)
	w.PutInt64(m.Seq)
	return w.Bytes()
}

func unmarshalProposeFetch(b []byte) (proposeFetchMsg, error) {
	r := wire.NewReader(b)
	m := proposeFetchMsg{Regency: r.Int32(), Seq: r.Int64()}
	if err := r.Finish(); err != nil {
		return proposeFetchMsg{}, fmt.Errorf("propose fetch: %w", err)
	}
	return m, nil
}

// voteMsg carries a WRITE or ACCEPT vote: the digest of the batch the voter
// registered for instance Seq in the given regency.
type voteMsg struct {
	Regency int32
	Seq     int64
	Digest  cryptoutil.Digest
}

func (m *voteMsg) marshal() []byte {
	w := wire.NewWriter(12 + cryptoutil.DigestSize)
	w.PutInt32(m.Regency)
	w.PutInt64(m.Seq)
	w.PutRaw(m.Digest[:])
	return w.Bytes()
}

// unmarshalVote returns the vote by value: it is tallied where it is
// decoded, so it need not reach the heap.
func unmarshalVote(b []byte) (voteMsg, error) {
	r := wire.NewReader(b)
	m := voteMsg{
		Regency: r.Int32(),
		Seq:     r.Int64(),
	}
	copy(m.Digest[:], r.Raw(cryptoutil.DigestSize))
	if err := r.Finish(); err != nil {
		return voteMsg{}, fmt.Errorf("vote: %w", err)
	}
	return m, nil
}

// stopMsg asks to advance to NextRegency because the current leader stalled.
type stopMsg struct {
	NextRegency int32
}

func (m *stopMsg) marshal() []byte {
	w := wire.NewWriter(4)
	w.PutInt32(m.NextRegency)
	return w.Bytes()
}

func unmarshalStop(b []byte) (*stopMsg, error) {
	r := wire.NewReader(b)
	m := &stopMsg{NextRegency: r.Int32()}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("stop: %w", err)
	}
	return m, nil
}

// writeCert is leader-change evidence: a value the sender write-certified
// (saw a WRITE quorum for) in an open instance, and the regency in which
// that quorum formed. A decided value always has a write certificate at
// some correct replica in any n-f subset, so carrying certificates for all
// open instances across the leader change preserves decided values.
type writeCert struct {
	Seq     int64
	Regency int32
	Digest  cryptoutil.Digest
	Batch   []request // the registered batch, if known
}

func putWriteCert(w *wire.Writer, c *writeCert) {
	w.PutInt64(c.Seq)
	w.PutInt32(c.Regency)
	w.PutRaw(c.Digest[:])
	putBatch(w, c.Batch)
}

func readWriteCert(r *wire.Reader) (writeCert, error) {
	var c writeCert
	c.Seq = r.Int64()
	c.Regency = r.Int32()
	copy(c.Digest[:], r.Raw(cryptoutil.DigestSize))
	var err error
	c.Batch, err = readBatch(r)
	return c, err
}

// stopDataMsg is sent to the new leader after a regency change. It reports
// the sender's progress and the write-certified values for every open
// instance. The message is signed when keys are configured so that a
// Byzantine replica cannot forge other replicas' progress reports.
type stopDataMsg struct {
	Regency     int32
	LastDecided int64
	Certs       []writeCert
	Signature   []byte
}

// signedBytes returns the portion of the encoding covered by the signature.
func (m *stopDataMsg) signedBytes() []byte {
	w := wire.NewWriter(64)
	w.PutInt32(m.Regency)
	w.PutInt64(m.LastDecided)
	w.PutUvarint(uint64(len(m.Certs)))
	for i := range m.Certs {
		putWriteCert(w, &m.Certs[i])
	}
	return w.Bytes()
}

func (m *stopDataMsg) marshal() []byte {
	body := m.signedBytes()
	w := wire.NewWriter(len(body) + len(m.Signature) + 8)
	w.PutBytes(body)
	w.PutBytes(m.Signature)
	return w.Bytes()
}

func unmarshalStopData(b []byte) (*stopDataMsg, error) {
	outer := wire.NewReader(b)
	body := outer.BytesCopy()
	sig := outer.BytesCopy()
	if err := outer.Finish(); err != nil {
		return nil, fmt.Errorf("stopdata: %w", err)
	}
	r := wire.NewReader(body)
	m := &stopDataMsg{
		Regency:     r.Int32(),
		LastDecided: r.Int64(),
		Signature:   sig,
	}
	n := r.Count(45) // seq, regency, digest and an empty batch
	if n > 1024 {
		return nil, fmt.Errorf("stopdata: %d certs out of range", n)
	}
	m.Certs = make([]writeCert, n)
	for i := range m.Certs {
		var err error
		if m.Certs[i], err = readWriteCert(r); err != nil {
			return nil, fmt.Errorf("stopdata body: %w", err)
		}
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("stopdata body: %w", err)
	}
	return m, nil
}

// syncDecision is one instance resolution inside a SYNC message: the batch
// to resume the instance with. HasCert distinguishes a carried-over
// write-certified value from a fresh (possibly empty) restart.
type syncDecision struct {
	Seq     int64
	HasCert bool
	Batch   []request
}

// syncMsg is the new leader's resolution of the synchronization phase: the
// consecutive open instances and the value each one resumes with. Replicas
// treat each decision like a PROPOSE in the new regency.
type syncMsg struct {
	Regency   int32
	Decisions []syncDecision
}

func (m *syncMsg) marshal() []byte {
	w := wire.NewWriter(64)
	w.PutInt32(m.Regency)
	w.PutUvarint(uint64(len(m.Decisions)))
	for i := range m.Decisions {
		d := &m.Decisions[i]
		w.PutInt64(d.Seq)
		w.PutBool(d.HasCert)
		putBatch(w, d.Batch)
	}
	return w.Bytes()
}

func unmarshalSync(b []byte) (*syncMsg, error) {
	r := wire.NewReader(b)
	m := &syncMsg{Regency: r.Int32()}
	n := r.Count(10) // seq, flag and an empty batch
	if n > 1024 {
		return nil, fmt.Errorf("sync: %d decisions out of range", n)
	}
	m.Decisions = make([]syncDecision, n)
	for i := range m.Decisions {
		d := &m.Decisions[i]
		d.Seq, d.HasCert = r.Int64(), r.Bool()
		var err error
		if d.Batch, err = readBatch(r); err != nil {
			return nil, fmt.Errorf("sync: %w", err)
		}
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("sync: %w", err)
	}
	return m, nil
}

// stateRequestMsg asks peers for a snapshot + decision log covering
// everything after FromSeq (the requester's last delivered instance).
type stateRequestMsg struct {
	FromSeq int64
}

func (m *stateRequestMsg) marshal() []byte {
	w := wire.NewWriter(8)
	w.PutInt64(m.FromSeq)
	return w.Bytes()
}

func unmarshalStateRequest(b []byte) (*stateRequestMsg, error) {
	r := wire.NewReader(b)
	m := &stateRequestMsg{FromSeq: r.Int64()}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("state request: %w", err)
	}
	return m, nil
}

// logEntryWire is one decided instance in a state reply.
type logEntryWire struct {
	Seq   int64
	Batch []request
}

// stateReplyMsg carries a checkpointed snapshot and the decision-log suffix.
// The receiver applies a reply only after f+1 distinct replicas sent replies
// with the same content digest.
type stateReplyMsg struct {
	CheckpointSeq int64
	Snapshot      []byte
	Entries       []logEntryWire
}

func (m *stateReplyMsg) marshal() []byte {
	w := wire.NewWriter(len(m.Snapshot) + 64)
	w.PutInt64(m.CheckpointSeq)
	w.PutBytes(m.Snapshot)
	w.PutUvarint(uint64(len(m.Entries)))
	for _, e := range m.Entries {
		w.PutInt64(e.Seq)
		putBatch(w, e.Batch)
	}
	return w.Bytes()
}

func unmarshalStateReply(b []byte) (*stateReplyMsg, error) {
	r := wire.NewReader(b)
	m := &stateReplyMsg{
		CheckpointSeq: r.Int64(),
		Snapshot:      r.BytesCopy(),
	}
	n := r.Count(9) // seq and an empty batch
	if n > 1<<20 {
		return nil, fmt.Errorf("state reply: %d entries out of range", n)
	}
	m.Entries = make([]logEntryWire, n)
	for i := range m.Entries {
		e := &m.Entries[i]
		e.Seq = r.Int64()
		var err error
		if e.Batch, err = readBatch(r); err != nil {
			return nil, fmt.Errorf("state reply: %w", err)
		}
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("state reply: %w", err)
	}
	return m, nil
}

// digest returns the content digest used for f+1 matching.
func (m *stateReplyMsg) digest() cryptoutil.Digest {
	return cryptoutil.Hash(m.marshal())
}

// batchDigest hashes a proposed batch; WRITE and ACCEPT votes carry this
// digest rather than the batch itself (Figure 3: votes are hashes).
// The pre-image is the wire encoding PutInt64(seq), PutBytesSlice(entries),
// streamed into the hash entry by entry and never materialised. A batch is
// its requests, whose entries are their putRequest encodings; it may also
// be given as encoded entries, which hash alike.
func batchDigest[B []request | [][]byte](seq int64, batch B) (d cryptoutil.Digest) {
	h := sha256.New()
	var hdr [8 + binary.MaxVarintLen64]byte
	binary.BigEndian.PutUint64(hdr[:8], uint64(seq))
	h.Write(binary.AppendUvarint(hdr[:8], uint64(len(batch))))
	switch b := any(batch).(type) {
	case []request:
		var head [entryHeadMax]byte
		for i := range b {
			rq := &b[i]
			if len(rq.ClientID) > maxInlineClientID {
				w := wire.NewWriter(rq.entrySize())
				rq.putEntry(w)
				h.Write(w.Bytes())
				continue
			}
			e := binary.AppendUvarint(head[:0], uint64(requestSize(rq.ClientID, rq.Op)))
			e = binary.AppendUvarint(e, uint64(len(rq.ClientID)))
			e = append(e, rq.ClientID...)
			e = binary.BigEndian.AppendUint64(e, rq.Seq)
			h.Write(binary.AppendUvarint(e, uint64(len(rq.Op))))
			h.Write(rq.Op)
		}
	case [][]byte:
		for _, e := range b {
			h.Write(binary.AppendUvarint(hdr[:0], uint64(len(e))))
			h.Write(e)
		}
	}
	h.Sum(d[:0])
	return d
}

// maxInlineClientID is the longest client id batchDigest writes into its
// stack buffer along with the rest of an entry's head (its length prefix,
// the client id, the sequence number and the operation's length); a
// request of a longer one is encoded whole first.
const maxInlineClientID = 64

const entryHeadMax = 3*binary.MaxVarintLen64 + maxInlineClientID + 8
