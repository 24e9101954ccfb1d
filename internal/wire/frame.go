package wire

import (
	"encoding/binary"
	"errors"
	"io"
)

// ErrFrameTooLarge is returned by FrameReader.Next for a length prefix
// above the reader's bound.
var ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")

// frameChunk is the size of a FrameReader's read buffer: a run of small
// frames costs one read call, and the rest of a frame, when at least this
// large, is read straight into the frame.
const frameChunk = 64 << 10

// FrameReader reads the frames of one byte stream: each a big-endian uint32
// length followed by that many payload bytes. Every payload it returns is a
// fresh slice of exactly the frame's length that the reader never touches
// again, so a decoder may return views of it (see the package
// documentation on ownership).
//
// A frame's payload grows as its bytes arrive, from one chunk and at most
// doubling, so a length prefix costs memory only in proportion to the bytes
// that follow it. A frame of at most a chunk is one allocation.
//
// A read error leaves the reader where it was: after a deadline expiry in
// the middle of a frame, Next can be called again and resumes.
type FrameReader struct {
	r   io.Reader
	max uint32

	chunk    []byte // read buffer; chunk[off:end] is not consumed yet
	off, end int

	frame   []byte // the payload being filled, while inFrame
	filled  int    // frame[:filled] holds the payload read so far
	size    int    // the payload's length; len(frame) reaches it last
	inFrame bool

	received int64
}

// NewFrameReader reads frames of at most max payload bytes from r.
func NewFrameReader(r io.Reader, max uint32) *FrameReader {
	return &FrameReader{r: r, max: max}
}

// Received returns the number of bytes read from the stream so far: a
// frame arriving slowly shows progress here before Next returns it.
func (fr *FrameReader) Received() int64 { return fr.received }

// Next returns the next frame's payload.
func (fr *FrameReader) Next() ([]byte, error) {
	if fr.chunk == nil {
		fr.chunk = make([]byte, frameChunk)
	}
	for {
		if !fr.inFrame && fr.end-fr.off >= 4 {
			n := binary.BigEndian.Uint32(fr.chunk[fr.off:])
			if n > fr.max {
				return nil, ErrFrameTooLarge
			}
			fr.off += 4
			fr.frame, fr.filled, fr.size, fr.inFrame = make([]byte, min(int(n), frameChunk)), 0, int(n), true
		}
		if fr.inFrame {
			for {
				k := copy(fr.frame[fr.filled:], fr.chunk[fr.off:fr.end])
				fr.off += k
				fr.filled += k
				if fr.off == fr.end || fr.filled == fr.size {
					break
				}
				fr.grow() // full, with more of the payload buffered
			}
			if fr.filled == fr.size {
				frame := fr.frame
				fr.frame, fr.inFrame = nil, false
				return frame, nil
			}
		}
		// More bytes are needed, and whatever is buffered is a partial
		// length prefix at most (an open frame took all the rest).
		var n int
		var err error
		if fr.inFrame && fr.size-fr.filled >= len(fr.chunk) {
			if fr.filled == len(fr.frame) {
				fr.grow()
			}
			n, err = fr.r.Read(fr.frame[fr.filled:])
			fr.filled += n
		} else {
			fr.end = copy(fr.chunk, fr.chunk[fr.off:fr.end])
			fr.off = 0
			n, err = fr.r.Read(fr.chunk[fr.end:])
			fr.end += n
		}
		fr.received += int64(n)
		if n == 0 && err != nil {
			return nil, err
		}
	}
}

// grow replaces the full payload buffer of an open frame with one twice its
// length, or the payload's length if that is less.
func (fr *FrameReader) grow() {
	frame := make([]byte, min(2*len(fr.frame), fr.size))
	copy(frame, fr.frame[:fr.filled])
	fr.frame = frame
}
