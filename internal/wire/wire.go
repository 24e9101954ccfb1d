// Package wire implements the deterministic binary encoding used by every
// serialized structure in the system: consensus messages, Fabric envelopes,
// blocks, and snapshots. Encodings are length-prefixed and carry no type
// information; each structure documents its own layout. Determinism matters
// because digests (block hashes, batch hashes) are computed over encodings.
//
// Ownership: a Reader never copies. Bytes, Raw and BytesSlice return views
// into its buffer (capped: an append cannot reach the bytes behind one), so a
// decoded value must not outlive modifications of that buffer, and keeps all
// of it reachable. Message payloads are immutable (transport.Message), so
// their decoders return views; whoever retains a small piece of a much larger
// or reusable buffer detaches that piece (bytes.Clone, BytesCopy).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// Encoding errors.
var (
	ErrTruncated = errors.New("wire: truncated input")
	ErrTooLarge  = errors.New("wire: length prefix too large")
	ErrOverlong  = errors.New("wire: varint longer than its minimal encoding")
)

// maxLen bounds any single length prefix to protect decoders against
// corrupt or hostile input.
const maxLen = 64 << 20

// Writer accumulates a binary encoding. The zero value is ready to use.
type Writer struct {
	buf []byte
}

// NewWriter returns a writer with the given capacity pre-allocated.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

// writerPool recycles encode buffers for hot paths (WAL record encoding,
// transport framing) where the encoding's lifetime is clearly bounded.
var writerPool = sync.Pool{New: func() any { return new(Writer) }}

// pooledBufCap bounds the buffers the pool retains; the occasional huge
// encoding (a jumbo batch) should not pin megabytes per pool slot.
const pooledBufCap = 1 << 20

// GetWriter returns a pooled writer with at least the given capacity.
// Pair it with PutWriter once the encoding — including every slice
// obtained from Bytes — is no longer referenced; paths whose encodings
// escape into long-lived structures should use NewWriter instead.
func GetWriter(capacity int) *Writer {
	w := writerPool.Get().(*Writer)
	if cap(w.buf) < capacity {
		w.buf = make([]byte, 0, capacity)
	} else {
		w.buf = w.buf[:0]
	}
	return w
}

// PutWriter recycles a writer obtained from GetWriter. The caller must
// not touch w (or any Bytes result aliasing it) afterwards.
func PutWriter(w *Writer) {
	if cap(w.buf) > pooledBufCap {
		w.buf = nil
	} else {
		w.buf = w.buf[:0]
	}
	writerPool.Put(w)
}

// Bytes returns the accumulated encoding. The slice aliases the writer's
// internal buffer; the caller must not keep writing afterwards.
func (w *Writer) Bytes() []byte { return w.buf }

// Reset empties the writer and keeps its buffer for the next encoding, so a
// slice Bytes returned earlier is overwritten: only an owner that is done
// with every such slice may call it.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// PutByte appends a single byte.
func (w *Writer) PutByte(v byte) { w.buf = append(w.buf, v) }

// PutBool appends a boolean as one byte.
func (w *Writer) PutBool(v bool) {
	if v {
		w.PutByte(1)
		return
	}
	w.PutByte(0)
}

// PutUint16 appends a big-endian uint16.
func (w *Writer) PutUint16(v uint16) {
	w.buf = binary.BigEndian.AppendUint16(w.buf, v)
}

// PutUint32 appends a big-endian uint32.
func (w *Writer) PutUint32(v uint32) {
	w.buf = binary.BigEndian.AppendUint32(w.buf, v)
}

// PutUint64 appends a big-endian uint64.
func (w *Writer) PutUint64(v uint64) {
	w.buf = binary.BigEndian.AppendUint64(w.buf, v)
}

// PutInt64 appends a big-endian int64 (two's complement).
func (w *Writer) PutInt64(v int64) { w.PutUint64(uint64(v)) }

// PutInt32 appends a big-endian int32.
func (w *Writer) PutInt32(v int32) { w.PutUint32(uint32(v)) }

// PutBytes appends a uvarint length prefix followed by the raw bytes.
func (w *Writer) PutBytes(b []byte) {
	w.buf = binary.AppendUvarint(w.buf, uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// PutString appends a string with a uvarint length prefix.
func (w *Writer) PutString(s string) {
	w.buf = binary.AppendUvarint(w.buf, uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// PutRaw appends bytes without a length prefix (for fixed-size fields).
func (w *Writer) PutRaw(b []byte) { w.buf = append(w.buf, b...) }

// PutUvarint appends an unsigned varint.
func (w *Writer) PutUvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// UvarintSize is the number of bytes PutUvarint writes for v, so an
// encoder can size its buffer exactly before writing.
func UvarintSize(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// BytesSize is the number of bytes PutBytes or PutString writes for a field
// of n bytes.
func BytesSize(n int) int { return UvarintSize(uint64(n)) + n }

// BytesSlice appends a uvarint count followed by each element
// length-prefixed.
func (w *Writer) PutBytesSlice(items [][]byte) {
	w.PutUvarint(uint64(len(items)))
	for _, item := range items {
		w.PutBytes(item)
	}
}

// Reader decodes a binary encoding produced by Writer. It uses a sticky
// error: after the first failure every accessor returns zero values, and
// Err reports the failure. This keeps decode sequences linear.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps buf for decoding. The reader does not copy buf.
func NewReader(buf []byte) *Reader {
	return &Reader{buf: buf}
}

// Err returns the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unconsumed bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Finish returns an error if decoding failed or if unconsumed bytes remain.
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("wire: %d trailing bytes", r.Remaining())
	}
	return nil
}

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.buf) {
		r.fail(ErrTruncated)
		return nil
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// Byte reads a single byte.
func (r *Reader) Byte() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a boolean.
func (r *Reader) Bool() bool { return r.Byte() != 0 }

// Uint16 reads a big-endian uint16.
func (r *Reader) Uint16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// Uint32 reads a big-endian uint32.
func (r *Reader) Uint32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// Uint64 reads a big-endian uint64.
func (r *Reader) Uint64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// Int64 reads a big-endian int64.
func (r *Reader) Int64() int64 { return int64(r.Uint64()) }

// Int32 reads a big-endian int32.
func (r *Reader) Int32() int32 { return int32(r.Uint32()) }

// Uvarint reads an unsigned varint, refusing one longer than PutUvarint
// writes it, so a decoder that accepts an encoding can re-create its bytes.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	switch {
	case n <= 0:
		r.fail(ErrTruncated)
		return 0
	case n != UvarintSize(v):
		r.fail(ErrOverlong)
		return 0
	}
	r.off += n
	return v
}

// Bytes reads a uvarint length prefix and returns that many bytes. The
// returned slice aliases the reader's buffer.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > maxLen || n > math.MaxInt32 {
		r.fail(ErrTooLarge)
		return nil
	}
	return r.take(int(n))
}

// BytesCopy reads a length-prefixed byte field into a fresh slice: for a
// field that must outlive, or not pin, the buffer it is decoded from.
func (r *Reader) BytesCopy() []byte {
	b := r.Bytes()
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	b := r.Bytes()
	return string(b)
}

// Raw reads n bytes without a length prefix.
func (r *Reader) Raw(n int) []byte { return r.take(n) }

// Fields reads n length-prefixed fields and returns the bytes they occupy,
// prefixes included, as one view a Reader reads the same fields from (a
// partial one if the reader fails: Err reports it).
func (r *Reader) Fields(n int) []byte {
	start := r.off
	for ; n > 0 && r.err == nil; n-- {
		r.Bytes()
	}
	return r.buf[start:r.off:r.off]
}

// BytesSlice reads a counted sequence of length-prefixed byte fields. The
// elements alias the reader's buffer.
func (r *Reader) BytesSlice() [][]byte {
	items := make([][]byte, r.Count(1))
	for i := range items {
		items[i] = r.Bytes()
	}
	if r.err != nil {
		return nil
	}
	return items
}

// Count reads the element count of a sequence whose elements occupy at least
// elemSize (> 0) bytes each. A count the unconsumed input cannot hold fails
// the reader, so a decoder may size its allocation by the result.
func (r *Reader) Count(elemSize int) int {
	n := r.Uvarint()
	if r.err == nil && n > uint64(r.Remaining()/elemSize) {
		r.fail(ErrTruncated)
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}
