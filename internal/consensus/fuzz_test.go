package consensus

import (
	"bytes"
	"testing"
	"unsafe"
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

// FuzzPropose drives the PROPOSE decoder and a follower's resolution of it,
// with a seed corpus in testdata/fuzz. Properties: any bytes, delivered to a
// follower as its leader's PROPOSE, cause no panic, and every entry decoded
// inline and every client id of a reference is a capped view inside the
// payload; and the input, cut into ops at its zero bytes and pooled as one
// client frame by a leader and by a follower, becomes a PROPOSE of
// references that resolves, against the leader's own pool and at the
// follower, to the batch the leader proposed, byte for byte, and to its
// digest.
func FuzzPropose(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		if pm, err := unmarshalPropose(in); err == nil {
			for i, e := range pm.Batch {
				insideFrame(t, in, e)
				if pm.Refs != nil {
					insideFrame(t, in, pm.Refs[i].client)
				}
			}
		}
		fol := newFollower(t, Config{})
		poolFrame, _ := encodeRequestFrame("fuzz-client", fuzzPool)
		fol.submit(poolFrame)
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
