package consensus

import (
	"bytes"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/cryptoutil"
	"repro/internal/transport"
	"repro/internal/wire"
)

// FuzzRequestFrame drives the decoder of client request frames, with a
// seed corpus in testdata/fuzz. Properties: any bytes, fed to a replica as
// a frame, cause no panic; sent by any endpoint but the client the frame
// names, they pool nothing; sent by that client, the replica pools exactly
// the operations that precede the first fault, under the frame's client and with
// consecutive sequence numbers from the frame's first (nothing from a frame
// whose header is malformed or whose run of sequence numbers passes
// 2^64-1), each a capped view inside the frame (neither reading nor
// appending to a pooled operation reaches past the bytes that were sent);
// and the input, cut into ops at its zero bytes, encodes as one client
// frame of exactly its header and its length-prefixed ops, which the
// replica pools as the same (client, seq, op) list, in order.
func FuzzRequestFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		client, want := walkFrame(in)
		r := newFollower(t, Config{}).r
		impostor := transport.Addr(client + "-impostor")
		if r.onRequests(impostor, in); r.pending != 0 {
			t.Fatalf("pooled %d requests of a frame naming %q from %q", r.pending, client, impostor)
		}
		r.onRequests(transport.Addr(client), in)
		if r.pending != len(want) {
			t.Fatalf("pooled %d requests of a frame that holds %d before its first fault", r.pending, len(want))
		}
		for _, w := range want {
			var p *pendingReq
			if rec := r.clients[client]; rec != nil {
				p = rec.find(w.Seq)
			}
			if p == nil || p.req.ClientID != client || !bytes.Equal(p.req.Op, w.Op) {
				t.Fatalf("(%q, %d, %q) of the frame is not pooled as sent", client, w.Seq, w.Op)
			}
			insideFrame(t, in, p.req.Op)
		}

		ops := bytes.Split(in, []byte{0})
		if len(ops) > 64 {
			ops = ops[:64]
		}
		reqs := make([]queuedRequest, len(ops))
		size := wire.BytesSize(len("fuzz-client")) + 8 + wire.UvarintSize(uint64(len(ops)))
		for i, op := range ops {
			reqs[i] = queuedRequest{seq: uint64(1<<40 + i), op: op}
			size += wire.BytesSize(len(op))
		}
		frame, n := encodeRequestFrame("fuzz-client", reqs)
		if n != len(reqs) || len(frame) != size {
			t.Fatalf("a %d-byte queue of %d requests was split at %d into a %d-byte frame, want %d bytes",
				len(in), len(reqs), n, len(frame), size)
		}
		r = newFollower(t, Config{}).r
		r.onRequests("fuzz-client", frame)
		if len(r.queue) != n {
			t.Fatalf("pooled %d of the frame's %d requests", len(r.queue), n)
		}
		for i, q := range r.queue {
			p := q.find()
			if p.req.ClientID != "fuzz-client" || p.req.Seq != reqs[i].seq || !bytes.Equal(p.req.Op, reqs[i].op) {
				t.Fatalf("pooled request %d is (%s, %d, %q), want (fuzz-client, %d, %q)",
					i, p.req.ClientID, p.req.Seq, p.req.Op, reqs[i].seq, reqs[i].op)
			}
			insideFrame(t, frame, p.req.Op)
		}
	})
}

// walkFrame is FuzzRequestFrame's own reading of a request frame: its
// client and the requests before the first fault that a replica with an
// empty pool and no executed requests pools. Sequence number 0 never pools:
// every client's dedup floor covers it.
func walkFrame(frame []byte) (string, []request) {
	rd := wire.NewReader(frame)
	client, first, n := rd.String(), rd.Uint64(), rd.Uvarint()
	if rd.Err() != nil || n > uint64(rd.Remaining()) || (n > 0 && first+(n-1) < first) {
		return client, nil
	}
	var out []request
	for i := uint64(0); i < n; i++ {
		op := rd.Bytes()
		if rd.Err() != nil {
			break
		}
		if first+i != 0 {
			out = append(out, request{ClientID: client, Seq: first + i, Op: op})
		}
	}
	return client, out
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
	reqs := make([]request, 8)
	for i := range reqs {
		q := fuzzPool[i%len(fuzzPool)]
		reqs[i] = request{ClientID: "fuzz-client", Seq: q.seq, Op: q.op}
	}
	pm := &proposeMsg{Seq: 5, Digest: batchDigest(5, reqs), Batch: reqs}
	return [][]byte{pm.marshalRefs(), pm.marshal()}
}

// FuzzPropose drives the PROPOSE decoder and a follower's resolution of it,
// with a seed corpus in testdata/fuzz. Properties: any bytes, delivered to a
// follower as its leader's PROPOSE, cause no panic, and every client id and
// operation an entry decodes to is a capped view inside the payload; the
// input, decoded into a message and resolved into storage that
// an earlier PROPOSE was decoded and resolved into (see fuzzEarlier), is the
// same PROPOSE, resolves the same way and to the same entries, requests and
// digest as decoded into a new message and resolved into new storage; and
// the input, cut into ops at its zero bytes and pooled as one client frame
// by a leader and by a follower, becomes a PROPOSE of references that
// resolves, against the leader's own pool and at the follower, to the batch
// the leader proposed, request for request, and to its digest.
func FuzzPropose(f *testing.F) {
	earlier := fuzzEarlier()
	f.Fuzz(func(t *testing.T, in []byte) {
		fol := newFollower(t, Config{})
		poolFrame, _ := encodeRequestFrame("fuzz-client", fuzzPool)
		fol.submit(poolFrame)
		fresh, want := new(proposeMsg), new([]request)
		err := unmarshalPropose(in, fresh)
		var wantDigest cryptoutil.Digest
		var wantSt resolution
		if err == nil {
			for _, e := range fresh.Entries {
				insideFrame(t, in, e.client)
				insideFrame(t, in, e.op)
			}
			wantDigest, wantSt = fol.r.resolve(fresh, want)
		}
		for _, b := range earlier {
			used, into := new(proposeMsg), new([]request)
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
		if got == nil || !got.haveProposal || got.digest != own.digest || len(got.reqs) != len(own.reqs) {
			t.Fatal("the follower did not register the leader's batch from its references")
		}
		for i := range own.reqs {
			if g, w := got.reqs[i], own.reqs[i]; g.ClientID != w.ClientID || g.Seq != w.Seq || !bytes.Equal(g.Op, w.Op) {
				t.Fatalf("entry %d resolved to %+v, the leader proposed %+v", i, g, w)
			}
		}
	})
}

// sameProposal fails unless got, decoded into a used message, is the
// PROPOSE want is: the same header, and entry by entry the same request or
// the same reference, with nothing the earlier message left.
func sameProposal(t *testing.T, got, want *proposeMsg) {
	t.Helper()
	if got.Regency != want.Regency || got.Seq != want.Seq || got.Digest != want.Digest ||
		len(got.Entries) != len(want.Entries) || got.refs != want.refs {
		t.Fatalf("decoded into a used message: (%d, %d, %x, %d entries, %d references), into a new one (%d, %d, %x, %d, %d)",
			got.Regency, got.Seq, got.Digest, len(got.Entries), got.refs,
			want.Regency, want.Seq, want.Digest, len(want.Entries), want.refs)
	}
	for i := range want.Entries {
		g, w := got.Entries[i], want.Entries[i]
		if g.ref != w.ref || g.seq != w.seq || !bytes.Equal(g.client, w.client) ||
			(g.op == nil) != (w.op == nil) || !bytes.Equal(g.op, w.op) {
			t.Fatalf("entry %d decoded into a used message is (%s, %d, %x, a reference: %v), into a new one (%s, %d, %x, %v)",
				i, g.client, g.seq, g.op, g.ref, w.client, w.seq, w.op, w.ref)
		}
	}
}

// sameResolution fails unless got, resolved into used storage, holds the
// requests want does.
func sameResolution(t *testing.T, got, want *[]request) {
	t.Helper()
	if len(*got) != len(*want) {
		t.Fatalf("resolved into used storage: %d requests, into new storage %d", len(*got), len(*want))
	}
	for i := range *want {
		g, w := (*got)[i], (*want)[i]
		if g.ClientID != w.ClientID || g.Seq != w.Seq || !bytes.Equal(g.Op, w.Op) {
			t.Fatalf("entry %d resolved into used storage is (%s, %d, %q), into new storage (%s, %d, %q)",
				i, g.ClientID, g.Seq, g.Op, w.ClientID, w.Seq, w.Op)
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

// FuzzSnapshot drives unwrapSnapshot, which reads the checkpoints peers
// send in a state transfer and the one recovery finds on disk, with a seed
// corpus in testdata/fuzz. Properties: any bytes cause no panic and
// allocate no more than a fixed multiple of their length, whatever counts
// they declare; every client's dedup table a snapshot it accepts installs
// keeps clientDedup's invariant and re-encodes to the table's bytes, byte
// for byte; and the replica's next checkpoint unwraps at another replica
// and re-wraps there to the same bytes.
func FuzzSnapshot(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		r, app := snapshotReplica(t)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		appSnap, ok := r.unwrapSnapshot(in)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 128*uint64(len(in))+64<<10 {
			t.Fatalf("unwrapping %d bytes allocated %d", len(in), grew)
		}
		if !ok {
			return
		}
		for client, table := range snapshotTables(t, in) {
			c := r.clients[client]
			checkDedupInvariant(t, &c.clientDedup)
			w := wire.NewWriter(0)
			c.marshalInto(w)
			if !bytes.Equal(w.Bytes(), table) {
				t.Fatalf("client %q: the table %x re-encodes as %x", client, table, w.Bytes())
			}
		}
		app.snap = appSnap
		once := r.wrapSnapshot()
		other, otherApp := snapshotReplica(t)
		appSnap, ok = other.unwrapSnapshot(once)
		if !ok {
			t.Fatalf("the checkpoint of an accepted snapshot does not unwrap: %x", once)
		}
		otherApp.snap = appSnap
		if twice := other.wrapSnapshot(); !bytes.Equal(once, twice) {
			t.Fatalf("a checkpoint re-wraps as other bytes: %x, then %x", once, twice)
		}
	})
}

// keptApp is an application whose snapshot is the bytes it was last given.
type keptApp struct {
	countApp
	snap []byte
}

func (a *keptApp) Snapshot() []byte { return a.snap }

// snapshotReplica returns a replica for FuzzSnapshot and its application.
func snapshotReplica(t *testing.T) (*Replica, *keptApp) {
	app := &keptApp{}
	r, err := NewReplica(Config{SelfID: 0, Replicas: ids(4)}, app, &sinkConn{addr: ReplicaID(0).Addr()})
	if err != nil {
		t.Fatal(err)
	}
	return r, app
}

// snapshotTables is FuzzSnapshot's own reading of a snapshot unwrapSnapshot
// accepted: the bytes of each client's dedup table.
func snapshotTables(t *testing.T, snap []byte) map[string][]byte {
	rd := wire.NewReader(snap)
	rd.Uvarint() // epoch
	rd.Raw(8 * rd.Count(8))
	tables := make(map[string][]byte)
	for n := rd.Count(10); n > 0; n-- {
		client := rd.String()
		start := len(snap) - rd.Remaining()
		if _, ok := readClientDedup(rd); !ok {
			t.Fatalf("client %q: an accepted snapshot holds a table that does not decode", client)
		}
		tables[client] = snap[start : len(snap)-rd.Remaining()]
	}
	return tables
}
