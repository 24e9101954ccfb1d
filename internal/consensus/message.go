package consensus

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

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

// A request frame is the payload of every RequestMessageType message: a
// uvarint count and that many length-prefixed requests (wire's BytesSlice
// encoding). Each entry is byte-identical to request.marshal — the entry a
// PROPOSE batch, the decision log and a checkpoint carry for the request —
// so a replica pools views of the frame and proposes them as they are. A
// Client sends every request queued since its previous send as one frame,
// the same payload to every replica.

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

// encodeRequestFrame encodes the leading requests of reqs, as many as fit in
// maxRequestFrameBytes but at least one, into a frame, and reports how many
// it took. The frame is sized exactly and each request written into it
// once: no intermediate encoding, no growth.
func encodeRequestFrame(clientID string, reqs []queuedRequest) ([]byte, int) {
	n, body := 0, 0
	for _, rq := range reqs {
		entry := requestSize(clientID, rq.op)
		entry += wire.UvarintSize(uint64(entry))
		if n > 0 && binary.MaxVarintLen64+body+entry > maxRequestFrameBytes {
			break
		}
		n++
		body += entry
	}
	w := wire.NewWriter(wire.UvarintSize(uint64(n)) + body)
	w.PutUvarint(uint64(n))
	for _, rq := range reqs[:n] {
		w.PutUvarint(uint64(requestSize(clientID, rq.op)))
		putRequest(w, clientID, rq.seq, rq.op)
	}
	return w.Bytes(), n
}

// request is a client operation submitted for total ordering. Clients send
// requests to every replica (Figure 3: "Clients send their requests to all
// replicas").
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
	return wire.UvarintSize(uint64(len(clientID))) + len(clientID) + 8 +
		wire.UvarintSize(uint64(len(op))) + len(op)
}

func putRequest(w *wire.Writer, clientID string, seq uint64, op []byte) {
	w.PutString(clientID)
	w.PutUint64(seq)
	w.PutBytes(op)
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
// Batch entries are marshalled requests, and Digest is their batchDigest.
//
// On the wire an entry travels either as a reference to a request the
// receiver pooled itself — its (client, seq): clients send every request to
// every replica (Figure 3), so a follower already holds what the leader
// proposes — or as the entry itself. The leader sends a reference for every
// entry it holds a request for, so a request's bytes leave the leader once,
// in its block; a follower that cannot resolve a reference asks the leader
// for the entries inline (msgProposeFetch). Votes, certificates, SYNC, the
// decision log and checkpoints carry full entries as before: the digest is
// over them, not over the references.
//
// Layout: Regency, Seq, Digest, a uvarint count, then per entry a kind byte
// and either the length-prefixed entry (entryInline) or the length-prefixed
// client id and a uvarint seq (entryRef).
type proposeMsg struct {
	Regency int32
	Seq     int64
	Digest  cryptoutil.Digest
	// Batch holds the entries. As decoded, an entry sent as a reference is
	// nil (resolve completes the batch elsewhere); every other entry is a
	// view of the payload (never nil: a view of a non-empty payload is not).
	Batch [][]byte
	// Refs, when the decoded message holds any reference, names entry i's
	// request in Refs[i] wherever the entry was sent as one (client non-nil,
	// a view of the payload); empty when every entry travelled inline.
	Refs []requestRef
	// payload is what a received PROPOSE was decoded from (nil for one
	// this replica built).
	payload []byte
}

// isRef reports whether entry i of a decoded PROPOSE was sent as a
// reference.
func (m *proposeMsg) isRef(i int) bool {
	return len(m.Refs) > 0 && m.Refs[i].client != nil
}

// requestRef names a pooled request in a PROPOSE.
type requestRef struct {
	client []byte
	seq    uint64
}

// Entry kinds of a PROPOSE.
const (
	entryInline byte = iota
	entryRef
)

// marshal encodes m with every entry inline.
func (m *proposeMsg) marshal() []byte { return m.marshalRefs(nil) }

// marshalRefs encodes m with entry i sent as a reference to reqs[i], or with
// every entry inline when reqs is nil. The encoding is sized exactly.
func (m *proposeMsg) marshalRefs(reqs []request) []byte {
	size := 4 + 8 + cryptoutil.DigestSize + wire.UvarintSize(uint64(len(m.Batch)))
	for i, e := range m.Batch {
		if reqs != nil {
			c := reqs[i].ClientID
			size += 1 + wire.UvarintSize(uint64(len(c))) + len(c) + wire.UvarintSize(reqs[i].Seq)
		} else {
			size += 1 + wire.UvarintSize(uint64(len(e))) + len(e)
		}
	}
	w := wire.NewWriter(size)
	w.PutInt32(m.Regency)
	w.PutInt64(m.Seq)
	w.PutRaw(m.Digest[:])
	w.PutUvarint(uint64(len(m.Batch)))
	for i, e := range m.Batch {
		if reqs != nil {
			w.PutByte(entryRef)
			w.PutString(reqs[i].ClientID)
			w.PutUvarint(reqs[i].Seq)
		} else {
			w.PutByte(entryInline)
			w.PutBytes(e)
		}
	}
	return w.Bytes()
}

// unmarshalPropose decodes b into m, reusing the storage of m's slices:
// whatever m held before is overwritten (or cleared), so the message decoded
// is the same as into a zero proposeMsg. On error m holds no useful value.
func unmarshalPropose(b []byte, m *proposeMsg) error {
	r := wire.NewReader(b)
	*m = proposeMsg{Regency: r.Int32(), Seq: r.Int64(), Batch: m.Batch, Refs: emptied(m.Refs), payload: b}
	copy(m.Digest[:], r.Raw(cryptoutil.DigestSize))
	m.Batch = sized(m.Batch, r.Count(2)) // a kind byte and an empty entry
	for i := 0; i < len(m.Batch) && r.Err() == nil; i++ {
		switch kind := r.Byte(); kind {
		case entryInline:
			m.Batch[i] = r.Bytes()
		case entryRef:
			if len(m.Refs) == 0 {
				m.Refs = sized(m.Refs, len(m.Batch))
			}
			m.Refs[i] = requestRef{client: r.Bytes(), seq: r.Uvarint()}
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
	Batch   [][]byte // the registered batch, if known
}

func putWriteCert(w *wire.Writer, c *writeCert) {
	w.PutInt64(c.Seq)
	w.PutInt32(c.Regency)
	w.PutRaw(c.Digest[:])
	w.PutBytesSlice(c.Batch)
}

func readWriteCert(r *wire.Reader) writeCert {
	var c writeCert
	c.Seq = r.Int64()
	c.Regency = r.Int32()
	copy(c.Digest[:], r.Raw(cryptoutil.DigestSize))
	c.Batch = r.BytesSlice()
	return c
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
	m.Certs = make([]writeCert, 0, n)
	for i := 0; i < n; i++ {
		m.Certs = append(m.Certs, readWriteCert(r))
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
	Batch   [][]byte
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
		w.PutBytesSlice(d.Batch)
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
	m.Decisions = make([]syncDecision, 0, n)
	for i := 0; i < n; i++ {
		m.Decisions = append(m.Decisions, syncDecision{
			Seq:     r.Int64(),
			HasCert: r.Bool(),
			Batch:   r.BytesSlice(),
		})
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
	Batch [][]byte
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
		w.PutBytesSlice(e.Batch)
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
	m.Entries = make([]logEntryWire, 0, n)
	for i := 0; i < n; i++ {
		m.Entries = append(m.Entries, logEntryWire{
			Seq:   r.Int64(),
			Batch: r.BytesSlice(),
		})
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
// The pre-image is the wire encoding PutInt64(seq), PutBytesSlice(batch),
// streamed into the hash entry by entry and never materialised.
func batchDigest(seq int64, batch [][]byte) (d cryptoutil.Digest) {
	h := sha256.New()
	var hdr [8 + binary.MaxVarintLen64]byte
	binary.BigEndian.PutUint64(hdr[:8], uint64(seq))
	h.Write(binary.AppendUvarint(hdr[:8], uint64(len(batch))))
	for _, e := range batch {
		h.Write(binary.AppendUvarint(hdr[:0], uint64(len(e))))
		h.Write(e)
	}
	h.Sum(d[:0])
	return d
}
