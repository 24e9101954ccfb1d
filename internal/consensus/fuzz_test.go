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
		for _, p := range r.pending {
			insideFrame(t, in, p.raw)
			insideFrame(t, in, p.req.Op)
		}

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
		for i, key := range r.queue {
			p := r.pending[key]
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
