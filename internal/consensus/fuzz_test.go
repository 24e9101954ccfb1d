package consensus

import (
	"bytes"
	"testing"
	"unsafe"

	"repro/internal/cryptoutil"
)

// FuzzRequestFrame drives the decoder of client request frames, with a
// seed corpus in testdata/fuzz. Properties: any bytes, fed to a replica as
// a frame, cause no panic, and every request the replica pools is a capped
// view inside the frame (neither reading nor appending to a pooled entry
// reaches past the bytes that were sent); and the input, cut into ops at
// its zero bytes, encodes as a client frame that the replica pools as the
// same (client, seq, op) list, in order, each entry byte-identical to the
// request's batch encoding.
func FuzzRequestFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		r := newFollower(t, Config{}).r
		r.onRequests(in)
		r.eachPooled(func(p *pendingReq) {
			insideFrame(t, in, p.raw)
			insideFrame(t, in, p.req.Op)
		})

		ops := bytes.Split(in, []byte{0})
		if len(ops) > 64 {
			ops = ops[:64]
		}
		reqs := make([]queuedRequest, len(ops))
		for i, op := range ops {
			reqs[i] = queuedRequest{seq: uint64(1<<40 + i), op: op}
		}
		frame, n := encodeRequestFrame("fuzz-client", reqs)
		if n != len(reqs) {
			t.Fatalf("a %d-byte queue of %d requests was split at %d", len(in), len(reqs), n)
		}
		r = newFollower(t, Config{}).r
		r.onRequests(frame)
		if len(r.queue) != n {
			t.Fatalf("pooled %d of the frame's %d requests", len(r.queue), n)
		}
		for i, q := range r.queue {
			p := q.find()
			want := request{ClientID: "fuzz-client", Seq: reqs[i].seq, Op: reqs[i].op}
			if p.req.ClientID != want.ClientID || p.req.Seq != want.Seq || !bytes.Equal(p.req.Op, want.Op) {
				t.Fatalf("pooled request %d is (%s, %d, %q), want (%s, %d, %q)",
					i, p.req.ClientID, p.req.Seq, p.req.Op, want.ClientID, want.Seq, want.Op)
			}
			if !bytes.Equal(p.raw, want.marshal()) {
				t.Fatalf("pooled entry %d is %x, want the batch encoding %x", i, p.raw, want.marshal())
			}
			insideFrame(t, frame, p.raw)
		}
	})
}

// insideFrame fails unless s is a capped view into frame: every byte it can
// reach, up to its capacity, is a byte of frame.
func insideFrame(t *testing.T, frame, s []byte) {
	t.Helper()
	if cap(s) == 0 {
		return
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(frame)))
	at := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	if cap(s) != len(s) || at < lo || at+uintptr(cap(s)) > lo+uintptr(len(frame)) {
		t.Fatalf("a pooled slice (len %d, cap %d) is not a capped view inside the %d-byte frame", len(s), cap(s), len(frame))
	}
}

// fuzzPool is what the follower of FuzzPropose has pooled before the
// fuzzed PROPOSE arrives, so that references can resolve (the seed corpus
// names these requests).
var fuzzPool = []queuedRequest{{seq: 1, op: []byte("a")}, {seq: 2, op: []byte("b")}, {seq: 3, op: []byte("c")}}

// fuzzEarlier builds the PROPOSEs FuzzPropose decodes and resolves before
// each input, so that the input lands in storage they left: eight entries
// naming fuzzPool's requests by reference, and the same eight inline. Both
// are longer than most inputs, the first has a reference wherever an input
// has an inline entry, and the second an inline entry wherever it has a
// reference.
func fuzzEarlier() [][]byte {
	batch := make([][]byte, 8)
	reqs := make([]request, len(batch))
	for i := range batch {
		q := fuzzPool[i%len(fuzzPool)]
		reqs[i] = request{ClientID: "fuzz-client", Seq: q.seq, Op: q.op}
		batch[i] = reqs[i].marshal()
	}
	pm := &proposeMsg{Seq: 5, Digest: batchDigest(5, batch), Batch: batch}
	return [][]byte{pm.marshalRefs(reqs), pm.marshal()}
}

// FuzzPropose drives the PROPOSE decoder and a follower's resolution of it,
// with a seed corpus in testdata/fuzz. Properties: any bytes, delivered to a
// follower as its leader's PROPOSE, cause no panic, and every entry decoded
// inline and every client id of a reference is a capped view inside the
// payload; the input, decoded into a message and resolved into storage that
// an earlier PROPOSE was decoded and resolved into (see fuzzEarlier), is the
// same PROPOSE, resolves the same way and to the same entries, requests and
// digest as decoded into a new message and resolved into new storage; and
// the input, cut into ops at its zero bytes and pooled as one client frame
// by a leader and by a follower, becomes a PROPOSE of references that
// resolves, against the leader's own pool and at the follower, to the batch
// the leader proposed, byte for byte, and to its digest.
func FuzzPropose(f *testing.F) {
	earlier := fuzzEarlier()
	f.Fuzz(func(t *testing.T, in []byte) {
		fol := newFollower(t, Config{})
		poolFrame, _ := encodeRequestFrame("fuzz-client", fuzzPool)
		fol.submit(poolFrame)
		fresh, want := new(proposeMsg), new(batchStore)
		err := unmarshalPropose(in, fresh)
		var wantDigest cryptoutil.Digest
		var wantSt resolution
		if err == nil {
			for i, e := range fresh.Batch {
				insideFrame(t, in, e)
				if fresh.isRef(i) {
					insideFrame(t, in, fresh.Refs[i].client)
				}
			}
			wantDigest, wantSt = fol.r.resolve(fresh, want)
		}
		for _, b := range earlier {
			used, into := new(proposeMsg), new(batchStore)
			if err := unmarshalPropose(b, used); err != nil {
				t.Fatalf("an earlier PROPOSE does not decode: %v", err)
			}
			if _, st := fol.r.resolve(used, into); st != resolved {
				t.Fatalf("an earlier PROPOSE does not resolve: %v", st)
			}
			if got := unmarshalPropose(in, used); (got == nil) != (err == nil) {
				t.Fatalf("decoded into a used message the input fails with %v, into a new one with %v", got, err)
			}
			if err != nil {
				continue
			}
			sameProposal(t, used, fresh)
			digest, st := fol.r.resolve(used, into)
			if st != wantSt {
				t.Fatalf("resolved into used storage the input is %v, into new storage %v", st, wantSt)
			}
			if st == resolved || st == conflicting {
				if digest != wantDigest {
					t.Fatalf("resolved into used storage the input hashes to %x, into new storage to %x", digest, wantDigest)
				}
				sameResolution(t, into, want)
			}
		}
		fol.deliver(0, msgPropose, earlier[0]) // the follower's own decode buffer, used
		fol.deliver(0, msgPropose, in)

		ops := bytes.Split(in, []byte{0})
		if len(ops) > 64 {
			ops = ops[:64]
		}
		reqs := make([]queuedRequest, len(ops))
		for i, op := range ops {
			reqs[i] = queuedRequest{seq: uint64(1<<40 + i), op: op}
		}
		frame, _ := encodeRequestFrame("fuzz-client", reqs)
		l, fol := newLeader(t, Config{}), newFollower(t, Config{})
		l.submit(frame)
		fol.submit(frame)
		props := l.proposals(t) // resolved against the leader's pool
		if len(props) != 1 || len(props[0].Batch) != len(reqs) {
			t.Fatalf("a frame of %d requests became %d PROPOSEs", len(reqs), len(props))
		}
		own := l.r.instances[0]
		if props[0].Digest != own.digest {
			t.Fatalf("the PROPOSE carries digest %x, the leader registered %x", props[0].Digest, own.digest)
		}
		for _, m := range l.conn.sent {
			if m.Type == msgPropose && m.To == fol.conn.addr {
				fol.deliver(0, msgPropose, m.Payload)
			}
		}
		got := fol.r.instances[0]
		if got == nil || !got.haveProposal || got.digest != own.digest || len(got.batch) != len(own.batch) {
			t.Fatal("the follower did not register the leader's batch from its references")
		}
		for i := range own.batch {
			if !bytes.Equal(got.batch[i], own.batch[i]) {
				t.Fatalf("entry %d resolved to %x, the leader proposed %x", i, got.batch[i], own.batch[i])
			}
		}
	})
}

// sameProposal fails unless got, decoded into a used message, is the
// PROPOSE want is: the same header, and entry by entry the same inline
// bytes or the same reference, with no reference the earlier message left.
func sameProposal(t *testing.T, got, want *proposeMsg) {
	t.Helper()
	if got.Regency != want.Regency || got.Seq != want.Seq || got.Digest != want.Digest || len(got.Batch) != len(want.Batch) {
		t.Fatalf("decoded into a used message: (%d, %d, %x, %d entries), into a new one (%d, %d, %x, %d entries)",
			got.Regency, got.Seq, got.Digest, len(got.Batch), want.Regency, want.Seq, want.Digest, len(want.Batch))
	}
	if (len(got.Refs) == 0) != (len(want.Refs) == 0) {
		t.Fatalf("decoded into a used message the input has %d references, into a new one %d", len(got.Refs), len(want.Refs))
	}
	for i := range want.Batch {
		if got.isRef(i) != want.isRef(i) || (got.Batch[i] == nil) != (want.Batch[i] == nil) || !bytes.Equal(got.Batch[i], want.Batch[i]) {
			t.Fatalf("entry %d decoded into a used message is %x (a reference: %v), into a new one %x (%v)",
				i, got.Batch[i], got.isRef(i), want.Batch[i], want.isRef(i))
		}
		if want.isRef(i) && (got.Refs[i].seq != want.Refs[i].seq || !bytes.Equal(got.Refs[i].client, want.Refs[i].client)) {
			t.Fatalf("reference %d decoded into a used message is (%s, %d), into a new one (%s, %d)",
				i, got.Refs[i].client, got.Refs[i].seq, want.Refs[i].client, want.Refs[i].seq)
		}
	}
}

// sameResolution fails unless got, resolved into used storage, holds the
// entries and requests want does.
func sameResolution(t *testing.T, got, want *batchStore) {
	t.Helper()
	if len(got.entries) != len(want.entries) || len(got.reqs) != len(want.reqs) {
		t.Fatalf("resolved into used storage: %d entries and %d requests, into new storage %d and %d",
			len(got.entries), len(got.reqs), len(want.entries), len(want.reqs))
	}
	for i := range want.entries {
		g, w := got.reqs[i], want.reqs[i]
		if !bytes.Equal(got.entries[i], want.entries[i]) || g.ClientID != w.ClientID || g.Seq != w.Seq || !bytes.Equal(g.Op, w.Op) {
			t.Fatalf("entry %d resolved into used storage is %x = (%s, %d, %q), into new storage %x = (%s, %d, %q)",
				i, got.entries[i], g.ClientID, g.Seq, g.Op, want.entries[i], w.ClientID, w.Seq, w.Op)
		}
	}
}

// FuzzPeerMessages drives the decoders a replica runs on bytes from any
// peer, with a seed corpus in testdata/fuzz: the input's first byte picks
// the decoder (an index into peerDecoders), the rest is the payload.
// Properties: any bytes decode without a panic, and a decoded message
// re-encodes canonically: the re-encoding decodes, and encodes again to the
// same bytes.
func FuzzPeerMessages(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		decode := peerDecoders[int(in[0])%len(peerDecoders)]
		once, err := decode.reencode(in[1:])
		if err != nil {
			return
		}
		twice, err := decode.reencode(once)
		if err != nil {
			t.Fatalf("%s: a decoded message re-encodes to bytes that do not decode: %v", decode.name, err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("%s: the re-encoding is not canonical: %x, then %x", decode.name, once, twice)
		}
	})
}

// peerDecoders lists the peer-message decoders FuzzPeerMessages selects
// from, each paired with its message's marshal.
var peerDecoders = []struct {
	name     string
	reencode func([]byte) ([]byte, error)
}{
	{"vote", func(b []byte) ([]byte, error) { m, err := unmarshalVote(b); return marshalled(&m, err) }},
	{"stop", func(b []byte) ([]byte, error) { return marshalled(unmarshalStop(b)) }},
	{"stopdata", func(b []byte) ([]byte, error) { return marshalled(unmarshalStopData(b)) }},
	{"sync", func(b []byte) ([]byte, error) { return marshalled(unmarshalSync(b)) }},
	{"state request", func(b []byte) ([]byte, error) { return marshalled(unmarshalStateRequest(b)) }},
	{"state reply", func(b []byte) ([]byte, error) { return marshalled(unmarshalStateReply(b)) }},
	{"propose fetch", func(b []byte) ([]byte, error) { m, err := unmarshalProposeFetch(b); return marshalled(&m, err) }},
}

// marshalled encodes a message a decoder returned, unless it failed.
func marshalled(m interface{ marshal() []byte }, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	return m.marshal(), nil
}
