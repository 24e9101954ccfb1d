package wire

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"testing/quick"
)

func TestRoundTripScalars(t *testing.T) {
	w := NewWriter(64)
	w.PutByte(0xAB)
	w.PutBool(true)
	w.PutBool(false)
	w.PutUint16(0xBEEF)
	w.PutUint32(0xDEADBEEF)
	w.PutUint64(1<<63 + 12345)
	w.PutInt64(-42)
	w.PutInt32(-7)
	w.PutUvarint(300)

	r := NewReader(w.Bytes())
	if got := r.Byte(); got != 0xAB {
		t.Fatalf("Byte = %x", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("Bool round trip failed")
	}
	if got := r.Uint16(); got != 0xBEEF {
		t.Fatalf("Uint16 = %x", got)
	}
	if got := r.Uint32(); got != 0xDEADBEEF {
		t.Fatalf("Uint32 = %x", got)
	}
	if got := r.Uint64(); got != 1<<63+12345 {
		t.Fatalf("Uint64 = %d", got)
	}
	if got := r.Int64(); got != -42 {
		t.Fatalf("Int64 = %d", got)
	}
	if got := r.Int32(); got != -7 {
		t.Fatalf("Int32 = %d", got)
	}
	if got := r.Uvarint(); got != 300 {
		t.Fatalf("Uvarint = %d", got)
	}
	if err := r.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestRoundTripBytesAndStrings(t *testing.T) {
	w := NewWriter(0)
	w.PutBytes([]byte("payload"))
	w.PutString("channel-1")
	w.PutBytes(nil)
	w.PutRaw([]byte{1, 2, 3})

	r := NewReader(w.Bytes())
	if got := r.Bytes(); string(got) != "payload" {
		t.Fatalf("Bytes = %q", got)
	}
	if got := r.String(); got != "channel-1" {
		t.Fatalf("String = %q", got)
	}
	if got := r.Bytes(); len(got) != 0 {
		t.Fatalf("empty Bytes = %q", got)
	}
	if got := r.Raw(3); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("Raw = %v", got)
	}
	if err := r.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestRoundTripBytesSlice(t *testing.T) {
	items := [][]byte{[]byte("a"), nil, []byte("ccc")}
	w := NewWriter(0)
	w.PutBytesSlice(items)
	r := NewReader(w.Bytes())
	got := r.BytesSlice()
	if err := r.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if len(got) != len(items) {
		t.Fatalf("len = %d, want %d", len(got), len(items))
	}
	for i := range items {
		if !bytes.Equal(got[i], items[i]) {
			t.Fatalf("item %d = %q, want %q", i, got[i], items[i])
		}
	}
}

func TestTruncatedInput(t *testing.T) {
	w := NewWriter(0)
	w.PutUint64(1)
	full := w.Bytes()

	r := NewReader(full[:4])
	r.Uint64()
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("Err = %v, want ErrTruncated", r.Err())
	}
	// Sticky error: subsequent reads keep failing without panicking.
	_ = r.Bytes()
	_ = r.String()
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("sticky Err = %v", r.Err())
	}
}

func TestOversizedLengthPrefix(t *testing.T) {
	w := NewWriter(0)
	w.PutUvarint(1 << 40) // absurd length prefix
	r := NewReader(w.Bytes())
	if got := r.Bytes(); got != nil {
		t.Fatalf("oversized Bytes returned %d bytes", len(got))
	}
	if !errors.Is(r.Err(), ErrTooLarge) {
		t.Fatalf("Err = %v, want ErrTooLarge", r.Err())
	}
}

func TestFinishTrailingBytes(t *testing.T) {
	w := NewWriter(0)
	w.PutUint32(7)
	w.PutByte(9)
	r := NewReader(w.Bytes())
	r.Uint32()
	if err := r.Finish(); err == nil {
		t.Fatal("Finish accepted trailing bytes")
	}
}

func TestBytesCopyDoesNotAlias(t *testing.T) {
	w := NewWriter(0)
	w.PutBytes([]byte("alias"))
	buf := w.Bytes()
	r := NewReader(buf)
	got := r.BytesCopy()
	buf[len(buf)-1] ^= 0xFF
	if string(got) != "alias" {
		t.Fatal("BytesCopy aliased the input buffer")
	}
}

// A count read off the wire must not size an allocation beyond what the
// input can hold: this body is a count of 2^26 and not one element.
func TestBytesSliceHostileCountAllocatesNothing(t *testing.T) {
	w := NewWriter(0)
	w.PutUvarint(1 << 26)
	body := w.Bytes()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := NewReader(body)
	got := r.BytesSlice()
	runtime.ReadMemStats(&after)
	if got != nil || r.Err() == nil {
		t.Fatalf("decoded %d elements from an empty body (err %v)", len(got), r.Err())
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Fatalf("a %d-byte body made the decoder allocate %d bytes", len(body), grew)
	}
}

// Views: BytesSlice and Bytes alias the input, and an append to a view must
// not reach the bytes behind it.
func TestReaderReturnsCappedViews(t *testing.T) {
	w := NewWriter(0)
	w.PutBytesSlice([][]byte{[]byte("ab"), []byte("cd")})
	buf := w.Bytes()
	r := NewReader(buf)
	items := r.BytesSlice()
	if r.Finish() != nil || len(items) != 2 {
		t.Fatalf("decode: %v", r.Err())
	}
	if &items[0][0] != &buf[2] {
		t.Fatal("BytesSlice copied its elements")
	}
	_ = append(items[0], 'X')
	if string(items[1]) != "cd" || buf[4] != 2 {
		t.Fatalf("append to a view wrote into the buffer: %q", buf)
	}
}

func TestPropertyBytesSliceRoundTrip(t *testing.T) {
	f := func(items [][]byte) bool {
		w := NewWriter(0)
		w.PutBytesSlice(items)
		r := NewReader(w.Bytes())
		got := r.BytesSlice()
		if r.Finish() != nil {
			return false
		}
		if len(got) != len(items) {
			return false
		}
		for i := range items {
			if !bytes.Equal(got[i], items[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyScalarRoundTrip(t *testing.T) {
	f := func(a uint64, b int64, c uint32, d uint16, e byte, s string, p []byte) bool {
		w := NewWriter(0)
		w.PutUint64(a)
		w.PutInt64(b)
		w.PutUint32(c)
		w.PutUint16(d)
		w.PutByte(e)
		w.PutString(s)
		w.PutBytes(p)
		r := NewReader(w.Bytes())
		ok := r.Uint64() == a && r.Int64() == b && r.Uint32() == c &&
			r.Uint16() == d && r.Byte() == e && r.String() == s &&
			bytes.Equal(r.Bytes(), p)
		return ok && r.Finish() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWriterLen(t *testing.T) {
	w := NewWriter(0)
	if w.Len() != 0 {
		t.Fatal("fresh writer not empty")
	}
	w.PutUint64(1)
	if w.Len() != 8 {
		t.Fatalf("Len = %d, want 8", w.Len())
	}
}

func TestUvarintSizeMatchesPutUvarint(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 16383, 16384, 1<<21 - 1, 1 << 21, 1<<63 - 1, 1 << 63, ^uint64(0)} {
		w := NewWriter(0)
		w.PutUvarint(v)
		if got := UvarintSize(v); got != w.Len() {
			t.Fatalf("UvarintSize(%d) = %d, PutUvarint wrote %d", v, got, w.Len())
		}
	}
}

// Fields reads n length-prefixed fields as one capped view that reads back
// as the same fields, and fails the reader on a field the input lacks.
func TestFieldsReadsAView(t *testing.T) {
	w := NewWriter(0)
	w.PutBytes([]byte("ab"))
	w.PutBytes(nil)
	w.PutBytes([]byte("c"))
	w.PutByte(9)
	r := NewReader(w.Bytes())
	span := r.Fields(3)
	if r.Err() != nil || len(span) != 6 || cap(span) != 6 || r.Byte() != 9 {
		t.Fatalf("Fields(3) = %x (cap %d), err %v", span, cap(span), r.Err())
	}
	again := NewReader(span)
	if string(again.Bytes()) != "ab" || len(again.Bytes()) != 0 || string(again.Bytes()) != "c" || again.Finish() != nil {
		t.Fatal("the view does not read back as the same fields")
	}
	short := NewReader(w.Bytes())
	if short.Fields(5); short.Err() == nil {
		t.Fatal("Fields read more fields than the input holds")
	}
}

// A varint longer than PutUvarint writes it is refused, so an accepted
// encoding re-creates its own bytes.
func TestUvarintRefusesOverlongEncodings(t *testing.T) {
	for _, in := range [][]byte{{0x80, 0x00}, {0x81, 0x80, 0x00}} {
		if r := NewReader(in); r.Uvarint() != 0 || !errors.Is(r.Err(), ErrOverlong) {
			t.Fatalf("%x: err %v, want ErrOverlong", in, r.Err())
		}
	}
}
