package consensus

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/cryptoutil"
	"repro/internal/wire"
)

// oneRequest encodes a batch of rq alone and reads it back.
func oneRequest(rq request) (request, error) {
	w := wire.NewWriter(0)
	putBatch(w, []request{rq}, false)
	rd := wire.NewReader(w.Bytes())
	batch, err := readBatch(rd)
	if err == nil {
		err = rd.Finish()
	}
	if err != nil || len(batch) != 1 {
		return request{}, fmt.Errorf("%d requests read back: %v", len(batch), err)
	}
	return batch[0], nil
}

func TestRequestRoundTrip(t *testing.T) {
	in := request{ClientID: "frontend-1", Seq: 42, Op: []byte("envelope")}
	out, err := oneRequest(in)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if out.ClientID != in.ClientID || out.Seq != in.Seq || !bytes.Equal(out.Op, in.Op) {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
	}
}

func TestRequestRoundTripProperty(t *testing.T) {
	f := func(client string, seq uint64, op []byte) bool {
		in := request{ClientID: client, Seq: seq, Op: op}
		out, err := oneRequest(in)
		if err != nil {
			return false
		}
		return out.ClientID == in.ClientID && out.Seq == in.Seq && bytes.Equal(out.Op, in.Op)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProposeRoundTrip(t *testing.T) {
	in := &proposeMsg{Regency: 3, Seq: 99, Batch: []request{{ClientID: "c", Seq: 1, Op: []byte("a")}, {ClientID: "c", Seq: 2, Op: []byte("bb")}}}
	out := new(proposeMsg)
	if err := unmarshalPropose(in.marshal(), out, 10); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if out.Regency != in.Regency || out.Seq != in.Seq || len(out.runs) != 1 || out.byRef {
		t.Fatalf("round trip mismatch: %+v", out)
	}
	if rn := out.runs[0]; string(rn.client) != "c" || rn.first != 1 || rn.n != 2 {
		t.Fatalf("run mismatch: (%s, %d, %d)", rn.client, rn.first, rn.n)
	}
	if e := out.requests()[1]; e.ClientID != "c" || e.Seq != 2 || !bytes.Equal(e.Op, []byte("bb")) {
		t.Fatalf("batch entry mismatch: (%s, %d, %q)", e.ClientID, e.Seq, e.Op)
	}
	if err := unmarshalPropose(in.marshalRefs(), out, 10); err != nil || !out.byRef || len(out.runs) != 1 || out.runs[0].n != 2 {
		t.Fatalf("by reference: %v, %+v", err, out)
	}
}

func TestVoteRoundTrip(t *testing.T) {
	in := voteMsg{Regency: 1, Seq: 7, Digest: cryptoutil.Hash([]byte("batch"))}
	out, err := unmarshalVote(in.marshal())
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if out != in {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
	}
}

func TestStopRoundTrip(t *testing.T) {
	out, err := unmarshalStop((&stopMsg{NextRegency: 5}).marshal())
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if out.NextRegency != 5 {
		t.Fatalf("NextRegency = %d", out.NextRegency)
	}
}

func TestStopDataRoundTrip(t *testing.T) {
	in := &stopDataMsg{
		Regency:     2,
		LastDecided: 17,
		Certs: []writeCert{
			{Seq: 18, Regency: 1, Digest: cryptoutil.Hash([]byte("x")),
				Batch: []request{{ClientID: "c", Seq: 1, Op: []byte("op1")}}},
			{Seq: 19, Regency: 0, Digest: cryptoutil.Hash([]byte("y"))},
		},
		Signature: []byte("sig"),
	}
	out, err := unmarshalStopData(in.marshal())
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if out.Regency != 2 || out.LastDecided != 17 || len(out.Certs) != 2 {
		t.Fatalf("round trip mismatch: %+v", out)
	}
	if out.Certs[0].Seq != 18 || out.Certs[0].Regency != 1 ||
		out.Certs[0].Digest != in.Certs[0].Digest ||
		len(out.Certs[0].Batch) != 1 {
		t.Fatalf("cert mismatch: %+v", out.Certs[0])
	}
	if !bytes.Equal(out.Signature, []byte("sig")) {
		t.Fatalf("signature mismatch")
	}
	// The signature must cover the body: same body, same signed bytes.
	if !bytes.Equal(in.signedBytes(), out.signedBytes()) {
		t.Fatal("signedBytes not stable across round trip")
	}
}

func TestSyncRoundTrip(t *testing.T) {
	in := &syncMsg{
		Regency: 4,
		Decisions: []syncDecision{
			{Seq: 20, HasCert: true, Batch: []request{{ClientID: "c", Seq: 1, Op: []byte("op")}}},
			{Seq: 21, HasCert: false},
		},
	}
	out, err := unmarshalSync(in.marshal())
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if out.Regency != 4 || len(out.Decisions) != 2 {
		t.Fatalf("round trip mismatch: %+v", out)
	}
	if !out.Decisions[0].HasCert || out.Decisions[1].HasCert {
		t.Fatal("HasCert flags mismatched")
	}
}

func TestStateMessagesRoundTrip(t *testing.T) {
	req, err := unmarshalStateRequest((&stateRequestMsg{FromSeq: -1}).marshal())
	if err != nil {
		t.Fatalf("unmarshal request: %v", err)
	}
	if req.FromSeq != -1 {
		t.Fatalf("FromSeq = %d", req.FromSeq)
	}

	in := &stateReplyMsg{
		CheckpointSeq: 10,
		Snapshot:      []byte("snap"),
		Entries: []logEntryWire{
			{Seq: 11, Batch: []request{{ClientID: "c", Seq: 1, Op: []byte("a")}}},
			{Seq: 12, Batch: nil},
		},
	}
	out, err := unmarshalStateReply(in.marshal())
	if err != nil {
		t.Fatalf("unmarshal reply: %v", err)
	}
	if out.CheckpointSeq != 10 || string(out.Snapshot) != "snap" || len(out.Entries) != 2 {
		t.Fatalf("round trip mismatch: %+v", out)
	}
	if out.digest() != in.digest() {
		t.Fatal("digest not stable across round trip")
	}
}

func TestBatchDigestProperties(t *testing.T) {
	a := []request{{ClientID: "c", Seq: 1, Op: []byte("x")}, {ClientID: "c", Seq: 2, Op: []byte("y")}}
	if batchDigest(1, a) == batchDigest(2, a) {
		t.Fatal("digest must bind the sequence number")
	}
	if batchDigest(1, a) != batchDigest(1, []request{{ClientID: "c", Seq: 1, Op: []byte("x")}, {ClientID: "c", Seq: 2, Op: []byte("y")}}) {
		t.Fatal("digest must be deterministic")
	}
	if batchDigest(1, []request{{ClientID: "c", Seq: 1, Op: []byte("xy")}, {ClientID: "c", Seq: 2}}) == batchDigest(1, a) {
		t.Fatal("digest must separate operation boundaries")
	}
	if batchDigest(1, []request{a[0], {ClientID: "d", Seq: 2, Op: []byte("y")}}) == batchDigest(1, a) {
		t.Fatal("digest must bind the client")
	}
}

// randomBatch is n requests of clients drawn from a few, with empty, short
// and long (beyond a 64-byte buffer) ids, in runs of consecutive sequence
// numbers broken at random.
func randomBatch(rng *rand.Rand, n int) []request {
	ids := make([]string, 1+rng.Intn(4))
	for i := range ids {
		id := make([]byte, rng.Intn(3)*rng.Intn(100))
		rng.Read(id)
		ids[i] = string(id)
	}
	reqs := make([]request, n)
	for j := range reqs {
		op := make([]byte, rng.Intn(300))
		rng.Read(op)
		reqs[j] = request{ClientID: ids[rng.Intn(len(ids))], Seq: rng.Uint64() >> uint(rng.Intn(64)), Op: op}
		if j > 0 && rng.Intn(3) > 0 {
			reqs[j].ClientID, reqs[j].Seq = reqs[j-1].ClientID, reqs[j-1].Seq+1
		}
	}
	return reqs
}

// A batch travels as its runs wherever it goes: the batch encoding is a
// count and the runs, the decision log's entries are those runs, the
// digest is over the seq and the encoding, and both the batch reader and
// recovery read the requests back.
func TestBatchHashesAsItsRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	r := newFollower(t, Config{}).r
	for i := 0; i < 200; i++ {
		reqs := randomBatch(rng, rng.Intn(20))
		w := wire.NewWriter(0)
		putBatch(w, reqs, false)
		if batchSize(reqs, false) != w.Len() {
			t.Fatalf("case %d: batchSize %d, encoding %d bytes", i, batchSize(reqs, false), w.Len())
		}
		entries := logEntries(reqs)
		joined := wire.NewWriter(0)
		joined.PutUvarint(uint64(len(entries)))
		for _, e := range entries {
			joined.PutRaw(e)
		}
		if !bytes.Equal(joined.Bytes(), w.Bytes()) {
			t.Fatalf("case %d: the batch encodes as %x, its log entries as %x", i, w.Bytes(), joined.Bytes())
		}
		seq := rng.Int63() - rng.Int63()
		pre := wire.NewWriter(0)
		pre.PutInt64(seq)
		pre.PutRaw(w.Bytes())
		if got, want := batchDigest(seq, reqs), cryptoutil.Hash(pre.Bytes()); got != want {
			t.Fatalf("case %d: %d requests hash to %x, their encoding to %x", i, len(reqs), got, want)
		}
		got, err := readBatch(wire.NewReader(w.Bytes()))
		if err != nil {
			t.Fatalf("case %d: the batch does not read: %v", i, err)
		}
		replayed, err := r.decodeDecided(seq, entries)
		if err != nil {
			t.Fatalf("case %d: the logged batch does not read: %v", i, err)
		}
		for name, got := range map[string][]request{"batch": got, "log": replayed} {
			if len(got) != len(reqs) {
				t.Fatalf("case %d: the %s reads as %d requests, want %d", i, name, len(got), len(reqs))
			}
			for j := range reqs {
				if got[j].ClientID != reqs[j].ClientID || got[j].Seq != reqs[j].Seq || !bytes.Equal(got[j].Op, reqs[j].Op) {
					t.Fatalf("case %d: the %s's request %d reads as %+v, want %+v", i, name, j, got[j], reqs[j])
				}
			}
		}
	}
}

// A batch whose every request is another client's is no larger as runs than
// as the per-request entries batches used to travel as (a length prefix,
// the client id, an 8-byte sequence number and the operation, each entry):
// a run of one spends a one-byte count where the entry spent its length.
func TestDistinctClientsBatchIsNoLarger(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		reqs := make([]request, 1+rng.Intn(50))
		entries := wire.UvarintSize(uint64(len(reqs)))
		for j := range reqs {
			reqs[j] = request{ClientID: fmt.Sprintf("client-%d-%s", j, strings.Repeat("x", rng.Intn(200))),
				Seq: rng.Uint64(), Op: make([]byte, rng.Intn(400))}
			entries += wire.BytesSize(wire.BytesSize(len(reqs[j].ClientID)) + 8 + wire.BytesSize(len(reqs[j].Op)))
		}
		if got := batchSize(reqs, false); got > entries {
			t.Fatalf("case %d: %d requests of distinct clients encode in %d bytes, as entries in %d", i, len(reqs), got, entries)
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	garbage := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
	if err := unmarshalPropose(garbage, new(proposeMsg), 10); err == nil {
		t.Error("propose accepted garbage")
	}
	if _, err := unmarshalVote(garbage[:3]); err == nil {
		t.Error("vote accepted garbage")
	}
	if _, err := unmarshalStopData(garbage); err == nil {
		t.Error("stopdata accepted garbage")
	}
	if _, err := unmarshalSync(garbage); err == nil {
		t.Error("sync accepted garbage")
	}
	if _, err := unmarshalStateReply(garbage); err == nil {
		t.Error("state reply accepted garbage")
	}
	if _, err := readBatch(wire.NewReader(garbage)); err == nil {
		t.Error("a batch read from garbage")
	}
}

// Every batch decoder bounds a run's count before it sizes or looks up
// anything by it: an inline run by the bytes present, a run by reference by
// the batch limit, and no run by 2^64-1. Two runs that are one are refused,
// and so is an empty one.
func TestRunCountsAreBounded(t *testing.T) {
	header := func(byRef bool) *wire.Writer {
		w := wire.NewWriter(0)
		w.PutInt32(0)
		w.PutInt64(0)
		w.PutRaw(make([]byte, cryptoutil.DigestSize))
		w.PutBool(byRef)
		return w
	}
	huge := wire.NewWriter(0) // 20 bytes naming 2^40 requests by reference
	huge.PutUvarint(1)
	putRunHead(huge, "c", 1, 1<<40)
	pm := new(proposeMsg)
	if w := header(true); true {
		w.PutRaw(huge.Bytes())
		if err := unmarshalPropose(w.Bytes(), pm, 1024); err == nil {
			t.Fatalf("a %d-byte batch naming 2^40 requests by reference was accepted", huge.Len())
		}
	}
	refs := func(n ...int) []byte {
		w := header(true)
		w.PutUvarint(uint64(len(n)))
		for i, k := range n {
			putRunHead(w, fmt.Sprint(i), 1, k)
		}
		return w.Bytes()
	}
	if err := unmarshalPropose(refs(600, 424), pm, 1024); err != nil {
		t.Fatalf("references to the batch limit: %v", err)
	}
	if err := unmarshalPropose(refs(600, 425), pm, 1024); err == nil {
		t.Fatal("references beyond the batch limit, over two runs, were accepted")
	}
	for name, batch := range map[string][]byte{
		"beyond the bytes": func() []byte {
			w := wire.NewWriter(0)
			w.PutUvarint(1)
			putRunHead(w, "c", 1, 3)
			w.PutBytes(nil)
			w.PutBytes(nil)
			return w.Bytes()
		}(),
		"past 2^64-1": func() []byte {
			w := wire.NewWriter(0)
			w.PutUvarint(1)
			putRunHead(w, "c", math.MaxUint64, 2)
			w.PutBytes(nil)
			w.PutBytes(nil)
			return w.Bytes()
		}(),
		"empty run": func() []byte {
			w := wire.NewWriter(0)
			w.PutUvarint(1)
			putRunHead(w, "c", 1, 0)
			return w.Bytes()
		}(),
		"one run as two": func() []byte {
			w := wire.NewWriter(0)
			w.PutUvarint(2)
			putRunHead(w, "c", 1, 1)
			w.PutBytes(nil)
			putRunHead(w, "c", 2, 1)
			w.PutBytes(nil)
			return w.Bytes()
		}(),
	} {
		if _, err := readBatch(wire.NewReader(batch)); err == nil {
			t.Errorf("%s: the batch was accepted", name)
		}
	}
	// A run that ends at 2^64-1 is whole; one from 0 after it is another.
	w := wire.NewWriter(0)
	putBatch(w, []request{{ClientID: "c", Seq: math.MaxUint64 - 1}, {ClientID: "c", Seq: math.MaxUint64}, {ClientID: "c", Seq: 0}}, false)
	if got, err := readBatch(wire.NewReader(w.Bytes())); err != nil || len(got) != 3 || got[2].Seq != 0 {
		t.Fatalf("a run ending at 2^64-1 and one from 0: %v, %+v", err, got)
	}
}

// benchRequests is a full PROPOSE of the paper's LAN experiment: n requests
// of one client with size-byte operations.
func benchRequests(n, size int) []request {
	rng := rand.New(rand.NewSource(1))
	reqs := make([]request, n)
	for i := range reqs {
		op := make([]byte, size)
		rng.Read(op)
		reqs[i] = request{ClientID: "frontend-0", Seq: uint64(i + 1), Op: op}
	}
	return reqs
}

// The batch digest's pre-image, pinned: PutInt64(seq), a uvarint count of
// runs, and per run PutString(client), PutUint64(first), PutUvarint(n) and
// n PutBytes(op). The batch is two runs of "fe" (seqs 2^62+5 and +6, then
// 9) around one of the empty client id (seq 7, an operation of 0x00 0xff);
// the seq is 2^40+3. Any change to the encoding changes these bytes, and
// every digest a vote carries with them.
func TestBatchDigestGolden(t *testing.T) {
	const seq = 1<<40 + 3
	batch := []request{
		{ClientID: "fe", Seq: 1<<62 + 5, Op: []byte("a")}, {ClientID: "fe", Seq: 1<<62 + 6},
		{ClientID: "", Seq: 7, Op: []byte{0x00, 0xff}},
		{ClientID: "fe", Seq: 9, Op: []byte("b")},
	}
	const golden = "0000010000000003" + "03" +
		"026665" + "4000000000000005" + "02" + "0161" + "00" +
		"00" + "0000000000000007" + "01" + "0200ff" +
		"026665" + "0000000000000009" + "01" + "0162"
	pre := wire.NewWriter(0)
	pre.PutInt64(seq)
	putBatch(pre, batch, false)
	if got := hex.EncodeToString(pre.Bytes()); got != golden {
		t.Fatalf("the pre-image is\n%s\nwant\n%s", got, golden)
	}
	want, _ := hex.DecodeString(golden)
	if got := batchDigest(seq, batch); got != cryptoutil.Hash(want) {
		t.Fatalf("batchDigest %x, the hash of the pre-image %x", got, cryptoutil.Hash(want))
	}
	if got := hex.EncodeToString(batchDigest(seq, batch).Bytes()); got != goldenBatchDigest {
		t.Fatalf("batchDigest %s, want %s", got, goldenBatchDigest)
	}
	// The digest streams: large and long-id batches hash as their encoding.
	rng := rand.New(rand.NewSource(29))
	cases := [][]request{nil, {{ClientID: strings.Repeat("l", 300), Seq: 1, Op: make([]byte, 1<<20)}}, benchRequests(400, 300)}
	for i := 0; i < 50; i++ {
		cases = append(cases, randomBatch(rng, rng.Intn(20)))
	}
	for i, batch := range cases {
		seq := rng.Int63() - rng.Int63()
		w := wire.NewWriter(0)
		w.PutInt64(seq)
		putBatch(w, batch, false)
		if got, want := batchDigest(seq, batch), cryptoutil.Hash(w.Bytes()); got != want {
			t.Fatalf("case %d (%d requests, seq %d): streamed digest %x, want %x", i, len(batch), seq, got, want)
		}
	}
}

// goldenBatchDigest is the SHA-256 of TestBatchDigestGolden's pre-image.
const goldenBatchDigest = "140b2a16157904808e9400e9c079449183fd17fc6036dacb9d44a70eb4988a3e"

// The decode and digest budgets of the hot path: what a replica allocates
// for a PROPOSE must not depend on how many requests it carries, and a
// PROPOSE decoded into the message the previous one was decoded into
// allocates nothing.
func TestHotPathAllocationBudgets(t *testing.T) {
	for _, n := range []int{10, 400} {
		batch := benchRequests(n, 300)
		if got := testing.AllocsPerRun(20, func() { batchDigest(7, batch) }); got > 2 {
			t.Errorf("batchDigest of %d entries: %.0f allocations, want <= 2", n, got)
		}
		for _, payload := range [][]byte{
			(&proposeMsg{Regency: 1, Seq: 7, Batch: batch}).marshal(),
			(&proposeMsg{Regency: 1, Seq: 7, Batch: batch}).marshalRefs(),
		} {
			pm := new(proposeMsg)
			if got := testing.AllocsPerRun(20, func() {
				if err := unmarshalPropose(payload, pm, 1024); err != nil {
					t.Fatal(err)
				}
			}); got > 0 {
				t.Errorf("unmarshalPropose of %d entries into a used message: %.0f allocations, want 0", n, got)
			}
		}
	}
	// An inline run of a client the replica has a record of decodes under
	// the record's id and allocates nothing; an unknown client's costs the
	// id string. Resolving adds batchDigest's allocations to that, no more.
	payload := (&proposeMsg{Regency: 1, Seq: 7, Batch: benchRequests(10, 300)}).marshal()
	pm := new(proposeMsg)
	if err := unmarshalPropose(payload, pm, 1024); err != nil {
		t.Fatal(err)
	}
	known := map[string]*clientRecord{"frontend-0": {clientDedup: clientDedup{client: "frontend-0"}}}
	for name, table := range map[string]map[string]*clientRecord{"known": known, "unknown": nil} {
		budget := float64(len(known) - len(table))
		reqs := appendRuns(nil, pm.runs, table)
		if got := testing.AllocsPerRun(100, func() { reqs = appendRuns(reqs[:0], pm.runs, table) }); got > budget {
			t.Errorf("decoding an inline run of a %s client: %.0f allocations, want <= %.0f", name, got, budget)
		}
		if table != nil && unsafe.StringData(reqs[0].ClientID) != unsafe.StringData(known["frontend-0"].client) {
			t.Error("an inline run of a known client decoded under a new id string")
		}
		r := newFollower(t, Config{}).r
		if table != nil {
			r.record("frontend-0")
		}
		into := new([]request)
		r.resolve(pm, into)
		digest := testing.AllocsPerRun(100, func() { batchDigest(pm.Seq, *into) })
		if got := testing.AllocsPerRun(100, func() { r.resolve(pm, into) }); got > digest+budget {
			t.Errorf("resolving an inline run of a %s client: %.0f allocations, want <= %.0f", name, got, digest+budget)
		}
		if table != nil && unsafe.StringData((*into)[0].ClientID) != unsafe.StringData(r.clients["frontend-0"].client) {
			t.Error("an inline run of a known client resolved under a new id string")
		}
	}
}

// Decoded messages are views: the runs of a PROPOSE and the operations of a
// batch alias the payload they came in.
func TestDecodersReturnViews(t *testing.T) {
	batch := benchRequests(3, 50)
	payload := (&proposeMsg{Regency: 1, Seq: 7, Batch: batch}).marshal()
	pm := new(proposeMsg)
	if err := unmarshalPropose(payload, pm, 1024); err != nil {
		t.Fatal(err)
	}
	end := &payload[len(payload)-1]
	if ops := pm.runs[0].ops; &ops[len(ops)-1] != end {
		t.Fatal("the PROPOSE decoder copied what it could have aliased")
	}
	if op := pm.requests()[2].Op; &op[len(op)-1] != end {
		t.Fatal("a PROPOSE's requests are not views of it")
	}
	payload = (&syncMsg{Regency: 1, Decisions: []syncDecision{{Seq: 7, HasCert: true, Batch: batch}}}).marshal()
	sy, err := unmarshalSync(payload)
	if err != nil {
		t.Fatal(err)
	}
	if op := sy.Decisions[0].Batch[2].Op; &op[len(op)-1] != &payload[len(payload)-1] {
		t.Fatal("the SYNC decoder copied what it could have aliased")
	}
}

var benchDigestSink cryptoutil.Digest

func BenchmarkBatchDigest(b *testing.B) {
	batch := benchRequests(400, 300)
	b.ReportAllocs()
	b.SetBytes(int64(400 * 300))
	for i := 0; i < b.N; i++ {
		benchDigestSink = batchDigest(int64(i), batch)
	}
}

func BenchmarkUnmarshalPropose(b *testing.B) {
	payload := (&proposeMsg{Regency: 1, Seq: 7, Batch: benchRequests(400, 300)}).marshal()
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	pm := new(proposeMsg)
	for i := 0; i < b.N; i++ {
		if err := unmarshalPropose(payload, pm, 1024); err != nil {
			b.Fatal(err)
		}
	}
}
