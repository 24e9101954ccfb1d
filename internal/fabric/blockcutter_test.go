package fabric

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"
)

func TestCutterCutsAtMaxEnvelopes(t *testing.T) {
	c := NewBlockCutter(CutterConfig{MaxEnvelopes: 3})
	if got := c.Append([]byte("a")); got != nil {
		t.Fatal("premature cut")
	}
	if got := c.Append([]byte("b")); got != nil {
		t.Fatal("premature cut")
	}
	batch := c.Append([]byte("c"))
	if len(batch) != 3 {
		t.Fatalf("cut size = %d, want 3", len(batch))
	}
	if c.Pending() != 0 {
		t.Fatalf("pending after cut = %d", c.Pending())
	}
}

func TestCutterCutsAtMaxBytes(t *testing.T) {
	c := NewBlockCutter(CutterConfig{MaxEnvelopes: 100, MaxBytes: 10})
	if got := c.Append(make([]byte, 4)); got != nil {
		t.Fatal("premature cut")
	}
	batch := c.Append(make([]byte, 8))
	if len(batch) != 2 {
		t.Fatalf("cut size = %d, want 2", len(batch))
	}
	if c.PendingBytes() != 0 {
		t.Fatalf("pending bytes after cut = %d", c.PendingBytes())
	}
}

func TestCutterManualCut(t *testing.T) {
	c := NewBlockCutter(CutterConfig{MaxEnvelopes: 10})
	if got := c.Cut(); got != nil {
		t.Fatal("cut of empty cutter returned a batch")
	}
	c.Append([]byte("x"))
	batch := c.Cut()
	if len(batch) != 1 || string(batch[0]) != "x" {
		t.Fatalf("manual cut = %v", batch)
	}
}

func TestCutterTimeout(t *testing.T) {
	c := NewBlockCutter(CutterConfig{MaxEnvelopes: 10, Timeout: 10 * time.Millisecond})
	c.Append([]byte("x"))
	if got := c.CutIfExpired(time.Now()); got != nil {
		t.Fatal("cut before timeout")
	}
	if got := c.CutIfExpired(time.Now().Add(20 * time.Millisecond)); len(got) != 1 {
		t.Fatalf("timeout cut = %v", got)
	}
	// No timeout configured: never cuts.
	c2 := NewBlockCutter(CutterConfig{MaxEnvelopes: 10})
	c2.Append([]byte("x"))
	if got := c2.CutIfExpired(time.Now().Add(time.Hour)); got != nil {
		t.Fatal("cut without configured timeout")
	}
}

func TestCutterDefaults(t *testing.T) {
	c := NewBlockCutter(CutterConfig{})
	for i := 0; i < 9; i++ {
		if got := c.Append([]byte{byte(i)}); got != nil {
			t.Fatalf("premature cut at %d", i)
		}
	}
	if got := c.Append([]byte{9}); len(got) != 10 {
		t.Fatalf("default block size = %d, want 10", len(got))
	}
}

func TestCutterPreservesOrderAndContent(t *testing.T) {
	f := func(raw [][]byte, sizeRaw uint8) bool {
		size := int(sizeRaw%20) + 1
		c := NewBlockCutter(CutterConfig{MaxEnvelopes: size})
		var batches [][][]byte
		for _, env := range raw {
			if batch := c.Append(env); batch != nil {
				batches = append(batches, batch)
			}
		}
		if final := c.Cut(); final != nil {
			batches = append(batches, final)
		}
		// Invariants: no batch exceeds the size bound; concatenating the
		// batches reproduces the input exactly.
		var flat [][]byte
		for _, b := range batches {
			if len(b) > size {
				return false
			}
			flat = append(flat, b...)
		}
		if len(flat) != len(raw) {
			return false
		}
		for i := range raw {
			if !bytes.Equal(flat[i], raw[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// A batch starts with the previous batch's length as its capacity: at a
// steady block size the 100 appends of a block make one allocation, not a
// doubling series from nil.
func TestCutterSizesBatchFromPreviousBlock(t *testing.T) {
	c := NewBlockCutter(CutterConfig{MaxEnvelopes: 100})
	env := []byte("envelope")
	block := func() {
		for i := 0; i < 100; i++ {
			if batch := c.Append(env); (batch != nil) != (i == 99) {
				t.Fatalf("append %d cut %d envelopes", i, len(batch))
			}
		}
	}
	block()
	if got := testing.AllocsPerRun(10, block); got != 1 {
		t.Fatalf("100 appends of a steady block size make %.0f allocations, want 1", got)
	}
}
