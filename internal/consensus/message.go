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

// A run is one client's requests of consecutive sequence numbers, and the
// one form in which this package encodes requests: a request frame is one
// run, and every batch — a PROPOSE's, a write certificate's, a SYNC
// decision's, a state reply entry's, the one the batch digest is over — is
// a uvarint count of runs, each a maximal stretch of one client's
// consecutive requests in batch order. A decision record holds a batch's
// runs as its entries (see Batch).
//
// Layout of a run: PutString(client), PutUint64(first), PutUvarint(n),
// then, unless the run travels by reference (a PROPOSE naming requests its
// followers pooled), n PutBytes(op). The i-th request's sequence number is
// first + i.
//
// A Client sends every request queued since its previous send as one frame,
// the same payload to every replica, and a replica pools each operation as
// a view of the frame, under the frame's client (see Replica.onRequests).

// maxRequestFrameBytes bounds the frames a Client builds: a longer queue
// leaves as several frames. (A single request larger than this is sent
// alone in a frame of its own.)
const maxRequestFrameBytes = 1 << 20

// EncodeRequest encodes a one-request frame: a payload sent with
// RequestMessageType to every replica enters the request pool like any
// client submission.
func EncodeRequest(clientID string, seq uint64, op []byte) []byte {
	frame, _ := encodeRequestFrame([]request{{ClientID: clientID, Seq: seq, Op: op}})
	return frame
}

// encodeRequestFrame encodes the leading requests of reqs into a frame: the
// run they start, cut where the frame would pass maxRequestFrameBytes but
// at least one request. It reports how many it took. The frame is sized
// exactly and each operation written into it once.
func encodeRequestFrame(reqs []request) ([]byte, int) {
	run, n, size := runLen(reqs), 1, runSize(reqs[:1], false)
	for ; n < run; n++ {
		op := wire.BytesSize(len(reqs[n].Op))
		if size+binary.MaxVarintLen64+op > maxRequestFrameBytes {
			break
		}
		size += op
	}
	w := wire.NewWriter(runSize(reqs[:n], false))
	putRun(w, reqs[:n], false)
	return w.Bytes(), n
}

// request is a client operation submitted for total ordering. Clients send
// requests to every replica (Figure 3: "Clients send their requests to all
// replicas"). A replica holds each request as one such value, from the
// frame it pooled it from to the checkpoint that retires its batch: a
// batch is a []request, and travels as its runs.
type request struct {
	ClientID string // the client's transport address
	Seq      uint64 // per-client sequence number for deduplication
	Op       []byte // opaque operation (an HLF envelope in the ordering service)
}

// runLen is the length of the run batch starts with: its first request and
// every one after it of the same client and the next sequence number.
func runLen(batch []request) int {
	n := 1
	for n < len(batch) && batch[n].ClientID == batch[0].ClientID &&
		batch[n-1].Seq != math.MaxUint64 && batch[n].Seq == batch[n-1].Seq+1 {
		n++
	}
	return n
}

func putRunHead(w *wire.Writer, client string, first uint64, n int) {
	w.PutString(client)
	w.PutUint64(first)
	w.PutUvarint(uint64(n))
}

// putRun writes reqs, one run, with their operations unless byRef.
func putRun(w *wire.Writer, reqs []request, byRef bool) {
	putRunHead(w, reqs[0].ClientID, reqs[0].Seq, len(reqs))
	if !byRef {
		for i := range reqs {
			w.PutBytes(reqs[i].Op)
		}
	}
}

// runSize is the exact length of putRun's encoding.
func runSize(reqs []request, byRef bool) int {
	size := wire.BytesSize(len(reqs[0].ClientID)) + 8 + wire.UvarintSize(uint64(len(reqs)))
	if !byRef {
		for i := range reqs {
			size += wire.BytesSize(len(reqs[i].Op))
		}
	}
	return size
}

// runCount is the number of maximal runs in batch.
func runCount(batch []request) (runs int) {
	for rest := batch; len(rest) > 0; runs++ {
		rest = rest[runLen(rest):]
	}
	return runs
}

// putBatch writes batch as the count of its maximal runs, then each run.
func putBatch(w *wire.Writer, batch []request, byRef bool) {
	w.PutUvarint(uint64(runCount(batch)))
	for rest := batch; len(rest) > 0; {
		n := runLen(rest)
		putRun(w, rest[:n], byRef)
		rest = rest[n:]
	}
}

// batchSize is the exact length of putBatch's encoding.
func batchSize(batch []request, byRef bool) int {
	size := wire.UvarintSize(uint64(runCount(batch)))
	for rest := batch; len(rest) > 0; {
		n := runLen(rest)
		size += runSize(rest[:n], byRef)
		rest = rest[n:]
	}
	return size
}

// run is a run as read (readRun): views of the bytes it was read from.
type run struct {
	client []byte
	first  uint64
	n      int
	ops    []byte // the n length-prefixed operations; nil by reference
}

// readRun is the one run reader. It bounds a run's count before anything is
// sized or looked up by it: an inline run's by the bytes present (each
// operation takes at least its length prefix), one by reference by room. A
// run names at least one request, and none past sequence number 2^64-1. An
// inline run's operations are read as one view (ops), so a run that reads
// is whole.
func readRun(rd *wire.Reader, byRef bool, room int) (run, error) {
	client, first, count := rd.Bytes(), rd.Uint64(), rd.Uvarint()
	bound := uint64(rd.Remaining())
	if byRef {
		bound = uint64(max(room, 0))
	}
	switch {
	case rd.Err() != nil:
		return run{}, fmt.Errorf("run: %w", rd.Err())
	case count == 0 || count > bound:
		return run{}, fmt.Errorf("run of %d requests out of range (at most %d)", count, bound)
	case first > math.MaxUint64-(count-1):
		return run{}, fmt.Errorf("run: %d sequence numbers from %d pass 2^64-1", count, first)
	}
	rn := run{client: client, first: first, n: int(count)}
	if !byRef {
		if rn.ops = rd.Fields(rn.n); rd.Err() != nil {
			return run{}, fmt.Errorf("run: %w", rd.Err())
		}
	}
	return rn, nil
}

// continues reports whether next extends prev: the same client, from the
// sequence number after prev's last. Runs that do are one run, so a reader
// refuses the second: an accepted batch re-encodes byte for byte.
func continues(prev, next *run) bool {
	last := prev.first + uint64(prev.n-1)
	return last != math.MaxUint64 && next.first == last+1 && string(next.client) == string(prev.client)
}

// readRuns reads a batch as its runs, into the storage of runs: a count,
// then each run, none continuing the one before it. limit bounds how many
// requests a batch by reference names in all.
func readRuns(rd *wire.Reader, byRef bool, limit int, runs []run) ([]run, error) {
	runs = sized(runs, rd.Count(1+8+1)) // the shortest run: an empty id, first and a count
	for i := range runs {
		rn, err := readRun(rd, byRef, limit)
		if err == nil && i > 0 && continues(&runs[i-1], &rn) {
			err = fmt.Errorf("run %d continues run %d", i, i-1)
		}
		if err != nil {
			return emptied(runs), err
		}
		runs[i] = rn
		limit -= rn.n
	}
	return runs, rd.Err()
}

// appendRuns appends the requests of inline runs to reqs, each operation a
// view and each client id the string known (a replica's client records)
// holds for the client, or a new string per run.
func appendRuns(reqs []request, runs []run, known map[string]*clientRecord) []request {
	for i := range runs {
		rn := &runs[i]
		id := ""
		if c := known[string(rn.client)]; c != nil {
			id = c.client
		} else {
			id = string(rn.client)
		}
		ops := wire.NewReader(rn.ops)
		for s := 0; s < rn.n; s++ {
			reqs = append(reqs, request{ClientID: id, Seq: rn.first + uint64(s), Op: ops.Bytes()})
		}
	}
	return reqs
}

// readBatch reads a batch of inline runs as requests, views of rd's buffer.
func readBatch(rd *wire.Reader) ([]request, error) {
	runs, err := readRuns(rd, false, 0, nil)
	return appendRuns(nil, runs, nil), err
}

// proposeMsg is the leader's batch proposal for one consensus instance.
// Digest is the batchDigest of its requests.
//
// Its runs travel by reference or inline. Clients send every request to
// every replica (Figure 3), so a follower already holds what the leader
// proposes, and the leader proposes by reference: a request's bytes leave
// the leader once, in its block. A follower that cannot resolve a
// reference asks the leader for the batch inline (msgProposeFetch). The
// digest, like every other carrier of the batch, is over the requests.
//
// Layout: Regency, Seq, Digest, PutBool(by reference), then the batch.
type proposeMsg struct {
	Regency int32
	Seq     int64
	Digest  cryptoutil.Digest
	// Batch is the proposed requests, which marshal and marshalRefs
	// encode. A decoded message leaves it empty: its runs are in runs, for
	// the receiver to resolve into requests (Replica.resolve).
	Batch []request
	// byRef is set on a decoded message whose runs name their requests.
	byRef bool
	runs  []run
	// payload is what a received PROPOSE was decoded from (nil for one
	// this replica built).
	payload []byte
}

// marshal encodes m with its runs inline.
func (m *proposeMsg) marshal() []byte { return m.encode(false) }

// marshalRefs encodes m with its runs by reference.
func (m *proposeMsg) marshalRefs() []byte { return m.encode(true) }

// encode encodes m, sized exactly.
func (m *proposeMsg) encode(byRef bool) []byte {
	w := wire.NewWriter(4 + 8 + cryptoutil.DigestSize + 1 + batchSize(m.Batch, byRef))
	w.PutInt32(m.Regency)
	w.PutInt64(m.Seq)
	w.PutRaw(m.Digest[:])
	w.PutBool(byRef)
	putBatch(w, m.Batch, byRef)
	return w.Bytes()
}

// unmarshalPropose decodes b into m, reusing the storage of m's runs:
// whatever m held before is overwritten (or cleared), so the message decoded
// is the same as into a zero proposeMsg. limit bounds the requests a
// PROPOSE by reference names (the batch size). On error m holds no useful
// value.
func unmarshalPropose(b []byte, m *proposeMsg, limit int) error {
	r := wire.NewReader(b)
	*m = proposeMsg{Regency: r.Int32(), Seq: r.Int64(), runs: m.runs, payload: b}
	copy(m.Digest[:], r.Raw(cryptoutil.DigestSize))
	kind := r.Byte()
	if m.byRef = kind == 1; kind > 1 {
		return fmt.Errorf("propose: batch of unknown kind %d", kind)
	}
	var err error
	if m.runs, err = readRuns(r, m.byRef, limit, m.runs); err == nil {
		err = r.Finish()
	}
	if err != nil {
		return fmt.Errorf("propose: %w", err)
	}
	return nil
}

// proposeFetchMsg is a follower's request for the PROPOSE of instance Seq in
// Regency with its batch inline: one whose references it could not
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
	putBatch(w, c.Batch, false)
}

func readWriteCert(r *wire.Reader, c *writeCert) (err error) {
	c.Seq = r.Int64()
	c.Regency = r.Int32()
	copy(c.Digest[:], r.Raw(cryptoutil.DigestSize))
	c.Batch, err = readBatch(r)
	return err
}

// readList reads a count of at most max elements, each at least min bytes
// long, then each element with read; nothing may follow the last.
func readList[T any](r *wire.Reader, min, max int, read func(*wire.Reader, *T) error) ([]T, error) {
	n := r.Count(min)
	if n > max {
		return nil, fmt.Errorf("%d elements out of range", n)
	}
	list := make([]T, n)
	for i := range list {
		if err := read(r, &list[i]); err != nil {
			return nil, err
		}
	}
	return list, r.Finish()
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
	var err error
	// A cert is at least its seq, regency, digest and an empty batch.
	if m.Certs, err = readList(r, 45, 1024, readWriteCert); err != nil {
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
		putBatch(w, d.Batch, false)
	}
	return w.Bytes()
}

func unmarshalSync(b []byte) (*syncMsg, error) {
	r := wire.NewReader(b)
	m := &syncMsg{Regency: r.Int32()}
	var err error
	// A decision is at least its seq, flag and an empty batch.
	m.Decisions, err = readList(r, 10, 1024, func(r *wire.Reader, d *syncDecision) (err error) {
		d.Seq, d.HasCert = r.Int64(), r.Bool()
		d.Batch, err = readBatch(r)
		return err
	})
	if err != nil {
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
		putBatch(w, e.Batch, false)
	}
	return w.Bytes()
}

func unmarshalStateReply(b []byte) (*stateReplyMsg, error) {
	r := wire.NewReader(b)
	m := &stateReplyMsg{
		CheckpointSeq: r.Int64(),
		Snapshot:      r.BytesCopy(),
	}
	var err error
	// An entry is at least its seq and an empty batch.
	m.Entries, err = readList(r, 9, 1<<20, func(r *wire.Reader, e *logEntryWire) (err error) {
		e.Seq = r.Int64()
		e.Batch, err = readBatch(r)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("state reply: %w", err)
	}
	return m, nil
}

// digest returns the content digest used for f+1 matching.
func (m *stateReplyMsg) digest() cryptoutil.Digest {
	return cryptoutil.Hash(m.marshal())
}

// batchDigest hashes a proposed batch; WRITE and ACCEPT votes carry this
// digest rather than the batch itself (Figure 3: votes are hashes). The
// pre-image is PutInt64(seq) and the batch's inline encoding (putBatch),
// streamed into the hash run by run and never materialised. It is written
// here rather than through putBatch so that the hash stays a local the
// compiler sees the type of: a digest allocates nothing
// (TestBatchHashesAsItsRuns holds the two to the same bytes).
func batchDigest(seq int64, batch []request) (d cryptoutil.Digest) {
	h := sha256.New()
	var buf [64]byte // a number's encoding, or a piece of a client id
	b := binary.BigEndian.AppendUint64(buf[:0], uint64(seq))
	h.Write(binary.AppendUvarint(b, uint64(runCount(batch))))
	for rest := batch; len(rest) > 0; {
		reqs := rest[:runLen(rest)]
		h.Write(binary.AppendUvarint(buf[:0], uint64(len(reqs[0].ClientID))))
		for id := reqs[0].ClientID; id != ""; id = id[len(b):] {
			b = buf[:copy(buf[:], id)]
			h.Write(b)
		}
		b = binary.BigEndian.AppendUint64(buf[:0], reqs[0].Seq)
		h.Write(binary.AppendUvarint(b, uint64(len(reqs))))
		for i := range reqs {
			h.Write(binary.AppendUvarint(buf[:0], uint64(len(reqs[i].Op))))
			h.Write(reqs[i].Op)
		}
		rest = rest[len(reqs):]
	}
	h.Sum(d[:0])
	return d
}
