package consensus

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cryptoutil"
	"repro/internal/wire"
)

func TestRequestRoundTrip(t *testing.T) {
	in := &request{ClientID: "frontend-1", Seq: 42, Op: []byte("envelope")}
	out, err := unmarshalRequest(in.marshal(), nil)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if out.ClientID != in.ClientID || out.Seq != in.Seq || !bytes.Equal(out.Op, in.Op) {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
	}
}

func TestRequestRoundTripProperty(t *testing.T) {
	f := func(client string, seq uint64, op []byte) bool {
		in := &request{ClientID: client, Seq: seq, Op: op}
		out, err := unmarshalRequest(in.marshal(), nil)
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
	if err := unmarshalPropose(in.marshal(), out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if out.Regency != in.Regency || out.Seq != in.Seq || len(out.Entries) != 2 || out.refs != 0 {
		t.Fatalf("round trip mismatch: %+v", out)
	}
	if e := out.Entries[1]; string(e.client) != "c" || e.seq != 2 || !bytes.Equal(e.op, []byte("bb")) {
		t.Fatalf("batch entry mismatch: (%s, %d, %q)", e.client, e.seq, e.op)
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
	a := [][]byte{[]byte("x"), []byte("y")}
	if batchDigest(1, a) == batchDigest(2, a) {
		t.Fatal("digest must bind the sequence number")
	}
	if batchDigest(1, a) != batchDigest(1, [][]byte{[]byte("x"), []byte("y")}) {
		t.Fatal("digest must be deterministic")
	}
	if batchDigest(1, [][]byte{[]byte("xy")}) == batchDigest(1, a) {
		t.Fatal("digest must separate entry boundaries")
	}
}

// A batch hashes as the encoding of its entries, whichever form it is given
// in, and every message that carries a batch, and the decision log, encode
// its requests as those entries: the digest a vote carries is the one over
// what SYNC, state transfer and the decision log carry.
func TestRequestBatchHashesAsItsEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	for i := 0; i < 100; i++ {
		reqs := make([]request, rng.Intn(20))
		for j := range reqs {
			id := make([]byte, rng.Intn(3)*rng.Intn(100)) // empty, short and beyond maxInlineClientID
			rng.Read(id)
			op := make([]byte, rng.Intn(300))
			rng.Read(op)
			reqs[j] = request{ClientID: string(id), Seq: rng.Uint64() >> uint(rng.Intn(64)), Op: op}
		}
		entries := make([][]byte, len(reqs))
		for j := range reqs {
			entries[j] = reqs[j].marshal()
		}
		decided := &Batch{reqs}
		for j := range entries {
			w := wire.NewWriter(0)
			decided.PutEntry(w, j)
			if decided.EntrySize(j) != len(entries[j]) || !bytes.Equal(w.Bytes(), entries[j]) {
				t.Fatalf("case %d: the decision log gets entry %d as %x (size %d), want %x", i, j, w.Bytes(), decided.EntrySize(j), entries[j])
			}
		}
		seq := rng.Int63() - rng.Int63()
		if got, want := batchDigest(seq, reqs), batchDigest(seq, entries); got != want {
			t.Fatalf("case %d: %d requests hash to %x, their entries to %x", i, len(reqs), got, want)
		}
		w := wire.NewWriter(0)
		putBatch(w, reqs)
		want := wire.NewWriter(0)
		want.PutBytesSlice(entries)
		if !bytes.Equal(w.Bytes(), want.Bytes()) {
			t.Fatalf("case %d: the batch encodes as %x, its entries as %x", i, w.Bytes(), want.Bytes())
		}
		got, err := readBatch(wire.NewReader(w.Bytes()))
		if err != nil || len(got) != len(reqs) {
			t.Fatalf("case %d: the batch decodes to %d requests (%v), want %d", i, len(got), err, len(reqs))
		}
		for j := range reqs {
			if got[j].ClientID != reqs[j].ClientID || got[j].Seq != reqs[j].Seq || !bytes.Equal(got[j].Op, reqs[j].Op) {
				t.Fatalf("case %d: request %d decodes as %+v, want %+v", i, j, got[j], reqs[j])
			}
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	garbage := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
	if err := unmarshalPropose(garbage, new(proposeMsg)); err == nil {
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
	if _, err := unmarshalRequest(garbage, nil); err == nil {
		t.Error("request accepted garbage")
	}
}

// benchBatch is a full PROPOSE of the paper's LAN experiment: n marshalled
// requests with size-byte operations.
func benchBatch(n, size int) [][]byte {
	reqs := benchRequests(n, size)
	batch := make([][]byte, n)
	for i := range batch {
		batch[i] = reqs[i].marshal()
	}
	return batch
}

// benchRequests is benchBatch's requests.
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

// oldBatchDigest is the digest as it was computed before it streamed: the
// hash of the materialised encoding. Votes carry it, so it must not change.
func oldBatchDigest(seq int64, batch [][]byte) cryptoutil.Digest {
	w := wire.NewWriter(64)
	w.PutInt64(seq)
	w.PutBytesSlice(batch)
	return cryptoutil.Hash(w.Bytes())
}

func TestBatchDigestGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	cases := [][][]byte{
		nil,
		{},
		{nil},
		{[]byte("a"), {}, []byte("b")},
		{make([]byte, 1<<20)},
		benchBatch(400, 300),
	}
	for i := 0; i < 50; i++ {
		batch := make([][]byte, rng.Intn(20))
		for j := range batch {
			batch[j] = make([]byte, rng.Intn(400))
			rng.Read(batch[j])
		}
		cases = append(cases, batch)
	}
	for i, batch := range cases {
		seq := rng.Int63() - rng.Int63()
		if got, want := batchDigest(seq, batch), oldBatchDigest(seq, batch); got != want {
			t.Fatalf("case %d (%d entries, seq %d): streamed digest %x, want %x", i, len(batch), seq, got, want)
		}
	}
}

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
		payload := (&proposeMsg{Regency: 1, Seq: 7, Batch: batch}).marshal()
		pm := new(proposeMsg)
		if got := testing.AllocsPerRun(20, func() {
			if err := unmarshalPropose(payload, pm); err != nil {
				t.Fatal(err)
			}
		}); got > 0 {
			t.Errorf("unmarshalPropose of %d entries into a used message: %.0f allocations, want 0", n, got)
		}
	}
	// A request of a client the replica has executed for before decodes
	// without allocating; an unknown client's costs the id string.
	entry := benchBatch(1, 300)[0]
	known := map[string]*clientRecord{"frontend-0": {clientDedup: clientDedup{client: "frontend-0"}}}
	for name, table := range map[string]map[string]*clientRecord{"known": known, "unknown": nil} {
		budget := float64(len(known) - len(table))
		if got := testing.AllocsPerRun(100, func() {
			if _, err := unmarshalRequest(entry, table); err != nil {
				t.Fatal(err)
			}
		}); got > budget {
			t.Errorf("unmarshalRequest, %s client: %.0f allocations, want <= %.0f", name, got, budget)
		}
	}
}

// Decoded messages are views: the entries of a PROPOSE and the operations
// of a batch alias the payload they came in.
func TestDecodersReturnViews(t *testing.T) {
	batch := benchRequests(3, 50)
	payload := (&proposeMsg{Regency: 1, Seq: 7, Batch: batch}).marshal()
	pm := new(proposeMsg)
	if err := unmarshalPropose(payload, pm); err != nil {
		t.Fatal(err)
	}
	end := &payload[len(payload)-1]
	if op := pm.Entries[2].op; &op[len(op)-1] != end {
		t.Fatal("the PROPOSE decoder copied what it could have aliased")
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
		if err := unmarshalPropose(payload, pm); err != nil {
			b.Fatal(err)
		}
	}
}
