package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func collect(t *testing.T, w *WAL) map[uint64][]byte {
	t.Helper()
	out := make(map[uint64][]byte)
	err := w.Replay(func(idx uint64, rec []byte) error {
		cp := make([]byte, len(rec))
		copy(cp, rec)
		out[idx] = cp
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(WALConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		idx, err := w.Append([]byte(fmt.Sprintf("record-%d", i)))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if idx != uint64(i+1) {
			t.Fatalf("append %d: index %d", i, idx)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenWAL(WALConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	recs := collect(t, w2)
	if len(recs) != 10 {
		t.Fatalf("recovered %d records, want 10", len(recs))
	}
	if string(recs[1]) != "record-0" || string(recs[10]) != "record-9" {
		t.Fatalf("records corrupted: %q, %q", recs[1], recs[10])
	}
	if idx, err := w2.Append([]byte("after-reopen")); err != nil || idx != 11 {
		t.Fatalf("append after reopen: idx=%d err=%v", idx, err)
	}
}

func TestWALTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(WALConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("rec-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail mid-record, as a crash during a write would.
	segs, _ := filepath.Glob(filepath.Join(dir, "*"+segSuffix))
	if len(segs) != 1 {
		t.Fatalf("segments: %v", segs)
	}
	info, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0], info.Size()-3); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenWAL(WALConfig{Dir: dir})
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	defer w2.Close()
	recs := collect(t, w2)
	if len(recs) != 4 {
		t.Fatalf("recovered %d records after torn tail, want 4", len(recs))
	}
	// The torn slot is reused by the next append.
	idx, err := w2.Append([]byte("replacement"))
	if err != nil || idx != 5 {
		t.Fatalf("append into torn slot: idx=%d err=%v", idx, err)
	}
}

func TestWALTruncatesCorruptCRC(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(WALConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := w.Append([]byte("payload-payload")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a byte in the last record's payload.
	segs, _ := filepath.Glob(filepath.Join(dir, "*"+segSuffix))
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(segs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenWAL(WALConfig{Dir: dir})
	if err != nil {
		t.Fatalf("reopen after corrupt crc: %v", err)
	}
	defer w2.Close()
	if recs := collect(t, w2); len(recs) != 2 {
		t.Fatalf("recovered %d records, want 2", len(recs))
	}
}

func TestWALRotationAndPrune(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(WALConfig{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	rec := make([]byte, 100)
	for i := 0; i < 20; i++ {
		if _, err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "*"+segSuffix))
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(segs))
	}

	if err := w.PruneTo(15); err != nil {
		t.Fatal(err)
	}
	after, _ := filepath.Glob(filepath.Join(dir, "*"+segSuffix))
	if len(after) >= len(segs) {
		t.Fatalf("prune removed nothing: %d -> %d segments", len(segs), len(after))
	}
	first := w.FirstIndex()
	if first == 0 || first > 15 {
		t.Fatalf("first index after prune = %d, want (0, 15]", first)
	}
	if w.LastIndex() != 20 {
		t.Fatalf("last index = %d, want 20", w.LastIndex())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the pruned log must still replay its retained suffix and
	// keep appending at the right index.
	w2, err := OpenWAL(WALConfig{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	recs := collect(t, w2)
	for idx := first; idx <= 20; idx++ {
		if _, ok := recs[idx]; !ok {
			t.Fatalf("index %d missing after prune+reopen", idx)
		}
	}
	if idx, err := w2.Append(rec); err != nil || idx != 21 {
		t.Fatalf("append after prune+reopen: idx=%d err=%v", idx, err)
	}
}

func TestWALGroupCommitConcurrency(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(WALConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, perG = 8, 50
	var wg sync.WaitGroup
	indices := make(chan uint64, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				idx, err := w.Append([]byte(fmt.Sprintf("g%d-i%d", g, i)))
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				indices <- idx
			}
		}(g)
	}
	wg.Wait()
	close(indices)
	seen := make(map[uint64]bool)
	for idx := range indices {
		if seen[idx] {
			t.Fatalf("duplicate index %d", idx)
		}
		seen[idx] = true
	}
	if len(seen) != goroutines*perG {
		t.Fatalf("indices: %d, want %d", len(seen), goroutines*perG)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenWAL(WALConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if recs := collect(t, w2); len(recs) != goroutines*perG {
		t.Fatalf("recovered %d records, want %d", len(recs), goroutines*perG)
	}
}

func TestWALRejectsOversizedRecord(t *testing.T) {
	w, err := OpenWAL(WALConfig{Dir: t.TempDir(), SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Append(make([]byte, 256)); !errors.Is(err, ErrTooBig) {
		t.Fatalf("oversized append: %v", err)
	}
	// Nor too small: the open-time scan reads a zero-length frame as a
	// torn tail, so an empty record would drop everything after it.
	if _, err := w.Append(nil); !errors.Is(err, ErrEmpty) {
		t.Fatalf("empty append: %v", err)
	}
}

func TestWALClosedAppendFails(t *testing.T) {
	w, err := OpenWAL(WALConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// TestWALReplayIdempotent is the replay-is-idempotent property: replaying
// the same log any number of times, across any number of reopens, yields
// byte-identical records at identical indices.
func TestWALReplayIdempotent(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(WALConfig{Dir: dir, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("idempotent-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	first := collect(t, w)
	second := collect(t, w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(WALConfig{Dir: dir, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	third := collect(t, w2)

	for name, other := range map[string]map[uint64][]byte{"same-handle": second, "reopen": third} {
		if len(other) != len(first) {
			t.Fatalf("%s replay: %d records, want %d", name, len(other), len(first))
		}
		for idx, rec := range first {
			if string(other[idx]) != string(rec) {
				t.Fatalf("%s replay diverges at index %d: %q vs %q", name, idx, other[idx], rec)
			}
		}
	}
}
