package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

// frames returns n frames of sizes that fill a fraction of the reader's
// chunk, straddle its edge and exceed it, every 25th spanning chunks enough
// to grow its payload more than once, and their encoding in a row.
func frames(n int) ([][]byte, []byte) {
	var payloads [][]byte
	var stream []byte
	for i := 0; i < n; i++ {
		half := (i * 7919) % (frameChunk + frameChunk/2) / 2
		if i%25 == 24 {
			half = (i/25+2)*frameChunk/2 + 9
		}
		p := bytes.Repeat([]byte{byte(i), byte(i >> 8)}, half)
		payloads = append(payloads, p)
		stream = binary.BigEndian.AppendUint32(stream, uint32(len(p)))
		stream = append(stream, p...)
	}
	return payloads, stream
}

// errStall is the deadline expiry stutterReader reports.
var errStall = errors.New("stall")

// stutterReader hands out at most step bytes per Read and fails every other
// Read with errStall, as a connection read under a short deadline does.
type stutterReader struct {
	r     io.Reader
	step  int
	stall bool
}

func (s *stutterReader) Read(p []byte) (int, error) {
	if s.stall = !s.stall; s.stall {
		return 0, errStall
	}
	return s.r.Read(p[:min(len(p), s.step)])
}

// A frame the reader returned reads the same after every later frame
// arrived, and a read error in the middle of a frame or of its length
// prefix loses nothing: Next resumes where it stopped, and Received counts
// every byte read.
func TestFrameReaderNeverReusesAReturnedFrame(t *testing.T) {
	want, stream := frames(60)
	for _, step := range []int{1 << 30, 3, 4099} {
		fr := NewFrameReader(&stutterReader{r: bytes.NewReader(stream), step: step}, 1<<20)
		var got [][]byte
		for len(got) < len(want) {
			p, err := fr.Next()
			if errors.Is(err, errStall) {
				continue
			}
			if err != nil {
				t.Fatalf("step %d, frame %d: %v", step, len(got), err)
			}
			if cap(p) != len(p) {
				t.Fatalf("step %d, frame %d: %d bytes in a %d-byte buffer", step, len(got), len(p), cap(p))
			}
			got = append(got, p)
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("step %d: frame %d changed or arrived damaged", step, i)
			}
		}
		if fr.Received() != int64(len(stream)) {
			t.Fatalf("step %d: received %d of %d bytes", step, fr.Received(), len(stream))
		}
		for {
			if _, err := fr.Next(); !errors.Is(err, errStall) {
				if err != io.EOF {
					t.Fatalf("step %d: after the last frame %v, want EOF", step, err)
				}
				break
			}
		}
	}
}

// A length prefix above the bound fails before anything is allocated for it.
func TestFrameReaderRejectsOversizeFrame(t *testing.T) {
	fr := NewFrameReader(bytes.NewReader([]byte{0, 0, 1, 1, 9}), 256)
	if _, err := fr.Next(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("257-byte frame under a 256-byte bound: %v", err)
	}
}

// A run of small frames takes one allocation each, the frame itself.
func TestFrameReaderAllocatesTheFrameOnly(t *testing.T) {
	frame := append(binary.BigEndian.AppendUint32(nil, 100), make([]byte, 100)...)
	fr := NewFrameReader(bytes.NewReader(bytes.Repeat(frame, 1000)), 1<<20)
	if allocs := testing.AllocsPerRun(500, func() {
		if _, err := fr.Next(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Fatalf("%.0f allocations per frame, want 1", allocs)
	}
}

// A length prefix alone allocates nothing in its proportion: a 64 MiB
// prefix followed by three bytes and the end of the stream costs the read
// chunk and one chunk of payload, not the 64 MiB the prefix names.
func TestFrameReaderGrowsTheFrameAsItArrives(t *testing.T) {
	stream := []byte{4, 0, 0, 0, 1, 2, 3}
	fr := NewFrameReader(bytes.NewReader(stream), 1<<26)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := fr.Next()
	runtime.ReadMemStats(&after)
	if err != io.EOF {
		t.Fatalf("a frame cut short by the end of the stream: %v, want EOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*frameChunk {
		t.Fatalf("a 64 MiB length prefix and 3 bytes allocated %d bytes, want at most %d", got, 2*frameChunk)
	}
}
