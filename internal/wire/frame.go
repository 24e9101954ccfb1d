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
// A read error leaves the reader where it was: after a deadline expiry in
// the middle of a frame, Next can be called again and resumes.
type FrameReader struct {
	r   io.Reader
	max uint32

	chunk    []byte // read buffer; chunk[off:end] is not consumed yet
	off, end int

	frame   []byte // the payload being filled, while inFrame
	filled  int
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
			fr.frame, fr.filled, fr.inFrame = make([]byte, n), 0, true
		}
		if fr.inFrame {
			k := copy(fr.frame[fr.filled:], fr.chunk[fr.off:fr.end])
			fr.off += k
			fr.filled += k
			if fr.filled == len(fr.frame) {
				frame := fr.frame
				fr.frame, fr.inFrame = nil, false
				return frame, nil
			}
		}
		// More bytes are needed, and whatever is buffered is a partial
		// length prefix at most (an open frame took all the rest).
		var n int
		var err error
		if fr.inFrame && len(fr.frame)-fr.filled >= len(fr.chunk) {
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
