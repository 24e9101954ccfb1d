package core

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/fabric"
)

// Fuzz targets for the decoders on the fetch path — what a node decodes
// from a peer's FetchBlocks request, and a node or frontend from a
// response and each block in it — with seed corpora in testdata/fuzz.
// Properties: no panic; an accepted input re-marshals to a value that
// decodes equal; every byte slice a decoder returns is a capped view
// inside the input, so neither reading nor appending to it reaches past
// the bytes that were sent.

func FuzzUnmarshalFetchRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		q, err := unmarshalFetchRequest(in)
		if err != nil {
			return
		}
		again, err := unmarshalFetchRequest(q.marshal())
		if err != nil || again != q {
			t.Fatalf("%+v re-marshals to %+v (%v)", q, again, err)
		}
	})
}

func FuzzUnmarshalFetchResponse(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		p, err := unmarshalFetchResponse(in)
		if err != nil {
			return
		}
		for _, b := range p.Blocks {
			insideInput(t, in, b)
		}
		again, err := unmarshalFetchResponse(p.marshal())
		if err != nil || !reflect.DeepEqual(again, p) {
			t.Fatalf("%+v re-marshals to %+v (%v)", p, again, err)
		}
	})
}

func FuzzUnmarshalBlock(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		b, err := fabric.UnmarshalBlock(in)
		if err != nil {
			return
		}
		for _, env := range b.Envelopes {
			insideInput(t, in, env)
		}
		for _, sig := range b.Signatures {
			insideInput(t, in, sig.Signature)
		}
		again, err := fabric.UnmarshalBlock(b.Marshal())
		if err != nil || !reflect.DeepEqual(again, b) {
			t.Fatalf("%+v re-marshals to %+v (%v)", b, again, err)
		}
	})
}

// insideInput fails unless s is a capped view into in: every byte it can
// reach, up to its capacity, is a byte of in.
func insideInput(t *testing.T, in, s []byte) {
	t.Helper()
	if cap(s) == 0 {
		return
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(in)))
	at := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	if cap(s) != len(s) || at < lo || at+uintptr(cap(s)) > lo+uintptr(len(in)) {
		t.Fatalf("a decoded slice (len %d, cap %d) is not a capped view inside the %d-byte input", len(s), cap(s), len(in))
	}
}
