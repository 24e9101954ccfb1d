package storage

import (
	"errors"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/cryptoutil"
	"repro/internal/fabric"
	"repro/internal/storage/retention"
)

// listSegments returns the block store's segment file names, sorted.
func listSegments(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*"+segSuffix))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	return paths
}

// snapshotFiles reads every segment file into memory.
func snapshotFiles(t *testing.T, paths []string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte, len(paths))
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[p] = raw
	}
	return out
}

func TestBlockStoreCompactionPrunesSegmentsAndFloorsReads(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenBlockStore(WALConfig{Dir: dir, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	chain := makeChain(t, 40)
	for _, b := range chain {
		if err := s.Put("ch", b); err != nil {
			t.Fatal(err)
		}
	}
	before := listSegments(t, dir)
	if len(before) < 4 {
		t.Fatalf("want several segments, got %d", len(before))
	}

	applied, err := s.CompactTo(map[string]uint64{"ch": 30})
	if err != nil {
		t.Fatalf("CompactTo: %v", err)
	}
	if applied["ch"] != 30 {
		t.Fatalf("applied = %v", applied)
	}
	after := listSegments(t, dir)
	if len(after) >= len(before) {
		t.Fatalf("compaction deleted nothing: %d -> %d segments", len(before), len(after))
	}
	if got := s.Floor("ch"); got != 30 {
		t.Fatalf("floor = %d", got)
	}

	// Below-floor reads answer the typed pruned error; the floor upward
	// still serves.
	_, err = s.ReadBlocks("ch", 0, 5)
	var pe *fabric.PrunedError
	if !errors.As(err, &pe) || pe.Floor != 30 {
		t.Fatalf("below-floor read: %v", err)
	}
	got, err := s.ReadBlocks("ch", 30, 40)
	if err != nil || len(got) != 10 || got[0].Header.Number != 30 {
		t.Fatalf("floor read = %d blocks, err %v", len(got), err)
	}
	if err := fabric.VerifyChain(got); err != nil {
		t.Fatalf("retained chain: %v", err)
	}
	// Floors never regress and at least one block stays retained.
	if applied, err := s.CompactTo(map[string]uint64{"ch": 10}); err != nil || applied != nil {
		t.Fatalf("regressing compaction applied %v, err %v", applied, err)
	}
	if applied, err := s.CompactTo(map[string]uint64{"ch": 99}); err != nil || applied["ch"] != 39 {
		t.Fatalf("over-height compaction applied %v, err %v", applied, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery loads the manifest first: the chain serves from the floor.
	s2, err := OpenBlockStore(WALConfig{Dir: dir, SegmentBytes: 512})
	if err != nil {
		t.Fatalf("reopen after compaction: %v", err)
	}
	defer s2.Close()
	info := s2.Chains()["ch"]
	if info.Floor != 39 || info.Height != 40 {
		t.Fatalf("recovered frontier = %+v", info)
	}
	if info.Anchor != chain[38].Header.Hash() {
		t.Fatal("recovered anchor is not the pruned predecessor's hash")
	}
	if info.LastHash != chain[39].Header.Hash() {
		t.Fatal("recovered last hash differs")
	}
	if _, err := s2.ReadBlocks("ch", 20, 5); !errors.Is(err, fabric.ErrPruned) {
		t.Fatalf("below-floor read after reopen: %v", err)
	}
}

// TestCompactionCrashWindows simulates the two crash windows the manifest
// ordering covers: a kill after the manifest write but before any segment
// deletion, and a kill after only some deletions. Both must recover a
// contiguous chain from the manifest floor (and finish the interrupted
// deletions).
func TestCompactionCrashWindows(t *testing.T) {
	for _, tc := range []struct {
		name string
		// restore selects which deleted segments reappear before reopen:
		// all of them (crash before any deletion) or all but the oldest
		// (crash between deletions; deletion runs oldest-first, so the
		// surviving set is a suffix).
		restoreAll bool
	}{
		{name: "before-any-deletion", restoreAll: true},
		{name: "between-deletions", restoreAll: false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := OpenBlockStore(WALConfig{Dir: dir, SegmentBytes: 512})
			if err != nil {
				t.Fatal(err)
			}
			chain := makeChain(t, 40)
			for _, b := range chain {
				if err := s.Put("ch", b); err != nil {
					t.Fatal(err)
				}
			}
			before := listSegments(t, dir)
			saved := snapshotFiles(t, before)
			if _, err := s.CompactTo(map[string]uint64{"ch": 30}); err != nil {
				t.Fatal(err)
			}
			after := listSegments(t, dir)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			kept := make(map[string]bool, len(after))
			for _, p := range after {
				kept[p] = true
			}
			var deleted []string
			for _, p := range before {
				if !kept[p] {
					deleted = append(deleted, p)
				}
			}
			if len(deleted) < 2 {
				t.Fatalf("need >= 2 deleted segments to exercise the windows, got %d", len(deleted))
			}
			restore := deleted
			if !tc.restoreAll {
				restore = deleted[1:] // the oldest deletion completed
			}
			for _, p := range restore {
				if err := os.WriteFile(p, saved[p], 0o644); err != nil {
					t.Fatal(err)
				}
			}

			// Recovery: manifest first, then finish the deletions.
			s2, err := OpenBlockStore(WALConfig{Dir: dir, SegmentBytes: 512})
			if err != nil {
				t.Fatalf("reopen mid-compaction: %v", err)
			}
			defer s2.Close()
			info := s2.Chains()["ch"]
			if info.Floor != 30 || info.Height != 40 {
				t.Fatalf("recovered frontier = %+v", info)
			}
			got, err := s2.ReadBlocks("ch", 30, 40)
			if err != nil || len(got) != 10 {
				t.Fatalf("read from floor = %d blocks, err %v", len(got), err)
			}
			if err := fabric.VerifyChain(got); err != nil {
				t.Fatalf("recovered chain from floor: %v", err)
			}
			if got[0].Header.PrevHash != info.Anchor {
				t.Fatal("first retained block does not carry the manifest anchor")
			}
			if _, err := s2.ReadBlocks("ch", 0, 5); !errors.Is(err, fabric.ErrPruned) {
				t.Fatalf("below-floor read after crash recovery: %v", err)
			}
			// The interrupted deletions were re-applied at open.
			reopened := listSegments(t, dir)
			for _, p := range deleted {
				for _, q := range reopened {
					if p == q {
						t.Fatalf("segment %s survived recovery", p)
					}
				}
			}
		})
	}
}

// TestReadBlocksUsesOffsetIndexNotPrefixScan proves the read path is a
// positioned read: corrupting an EARLIER record in a sealed segment must
// not affect reading a LATER block from the same segment (a
// decode-from-zero prefix scan would trip over the corrupt record).
func TestReadBlocksUsesOffsetIndexNotPrefixScan(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenBlockStore(WALConfig{Dir: dir, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	chain := makeChain(t, 30)
	for _, b := range chain {
		if err := s.Put("ch", b); err != nil {
			t.Fatal(err)
		}
	}
	s.wal.mu.Lock()
	if len(s.wal.segments) < 3 {
		s.wal.mu.Unlock()
		t.Fatalf("want several segments, got %d", len(s.wal.segments))
	}
	seg := s.wal.segments[0] // sealed: the writer only appends to the last
	s.wal.mu.Unlock()
	if seg.last <= seg.first {
		t.Fatalf("first segment holds %d records", seg.last-seg.first+1)
	}

	// Flip a payload byte of the segment's FIRST record on disk.
	f, err := os.OpenFile(seg.path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], seg.offsets[0]+recordHeaderSize+2); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], seg.offsets[0]+recordHeaderSize+2); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Block numbers are wal index - 1 here (single channel). The last
	// record of the corrupted segment must still read cleanly.
	lastBlock := seg.last - 1
	got, err := s.ReadBlocks("ch", lastBlock, 1)
	if err != nil || len(got) != 1 || got[0].Header.Number != lastBlock {
		t.Fatalf("offset read of block %d: %d blocks, err %v", lastBlock, len(got), err)
	}
	// The corrupted record itself fails its CRC.
	if _, err := s.ReadBlocks("ch", seg.first-1, 1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt record read: %v", err)
	}
}

// TestBlockStoreCountsChannelBytes checks the per-channel byte accounting
// feeding the weighted retention budget: the incremental counters on the
// put path agree with the exact WAL record sizes, survive compaction, and
// are recomputed identically at recovery.
func TestBlockStoreCountsChannelBytes(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenBlockStore(WALConfig{Dir: dir, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	chainA, chainB := makeChain(t, 20), makeChain(t, 5)
	for _, b := range chainA {
		if err := s.Put("a", b); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range chainB {
		if err := s.Put("b", b); err != nil {
			t.Fatal(err)
		}
	}
	exact := func(channel string) int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.wal.RecordSizeBytes(s.index[channel])
	}
	st := s.RetentionState()
	for _, ch := range []string{"a", "b"} {
		if got, want := st.Channels[ch].Bytes, exact(ch); got != want || got <= 0 {
			t.Fatalf("channel %s bytes = %d, exact %d", ch, got, want)
		}
	}
	if st.Channels["a"].Bytes <= st.Channels["b"].Bytes {
		t.Fatalf("4x-longer channel not heavier: a=%d b=%d", st.Channels["a"].Bytes, st.Channels["b"].Bytes)
	}

	// Compaction shrinks the counter to the surviving records, exactly.
	before := st.Channels["a"].Bytes
	if _, err := s.CompactTo(map[string]uint64{"a": 15}); err != nil {
		t.Fatal(err)
	}
	st = s.RetentionState()
	if got, want := st.Channels["a"].Bytes, exact("a"); got != want || got >= before {
		t.Fatalf("post-compaction bytes = %d, exact %d, before %d", got, want, before)
	}
	wantA, wantB := st.Channels["a"].Bytes, st.Channels["b"].Bytes
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery recomputes the same counters from the offset tables.
	s2, err := OpenBlockStore(WALConfig{Dir: dir, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st = s2.RetentionState()
	if st.Channels["a"].Bytes != wantA || st.Channels["b"].Bytes != wantB {
		t.Fatalf("recovered bytes a=%d b=%d, want a=%d b=%d",
			st.Channels["a"].Bytes, st.Channels["b"].Bytes, wantA, wantB)
	}
}

func TestBlockStoreRebaseJumpsOverPrunedGap(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenBlockStore(WALConfig{Dir: dir, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	chain := makeChain(t, 5)
	for _, b := range chain {
		if err := s.Put("ch", b); err != nil {
			t.Fatal(err)
		}
	}
	// The cluster pruned blocks 5..19 away while this node was down: jump
	// to floor 20, anchored by the (trusted) PrevHash of block 20.
	anchor := cryptoutil.Hash([]byte("pruned-predecessor"))
	if err := s.RebaseBlocks("ch", 20, anchor); err != nil {
		t.Fatalf("RebaseBlocks: %v", err)
	}
	if h, f := s.Height("ch"), s.Floor("ch"); h != 20 || f != 20 {
		t.Fatalf("after rebase: height %d floor %d", h, f)
	}
	b20 := fabric.NewBlock(20, anchor, [][]byte{chain[0].Envelopes[0]})
	if err := s.Put("ch", b20); err != nil {
		t.Fatalf("put after rebase: %v", err)
	}
	if _, err := s.ReadBlocks("ch", 0, 5); !errors.Is(err, fabric.ErrPruned) {
		t.Fatalf("stale read after rebase: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The rebase manifest governs recovery: the stale records below the
	// floor are skipped, the rebased chain serves.
	s2, err := OpenBlockStore(WALConfig{Dir: dir, SegmentBytes: 512})
	if err != nil {
		t.Fatalf("reopen after rebase: %v", err)
	}
	defer s2.Close()
	info := s2.Chains()["ch"]
	if info.Floor != 20 || info.Height != 21 || info.Anchor != anchor {
		t.Fatalf("recovered frontier = %+v", info)
	}
	got, err := s2.ReadBlocks("ch", 20, 5)
	if err != nil || len(got) != 1 || got[0].Header.Hash() != b20.Header.Hash() {
		t.Fatalf("rebased read = %d blocks, err %v", len(got), err)
	}
}

// TestDiskGrowthBoundedUnderRetention is the disk-growth regression check
// (wired into CI's race-detector job): a sustained append workload,
// compacted synchronously whenever the retention policy says one is due,
// must keep the block store's on-disk size under the cap plus bounded
// slack (whole-segment pruning granularity plus the block in flight), and
// old segments must actually be deleted.
func TestDiskGrowthBoundedUnderRetention(t *testing.T) {
	const (
		capBytes     = 64 << 10
		segmentBytes = 8 << 10
		blocks       = 2000
	)
	policy := retention.Policy{RetainBytes: capBytes}
	s, err := OpenBlockStore(WALConfig{Dir: t.TempDir(), SegmentBytes: segmentBytes})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	envs := make([][]byte, 5)
	for i := range envs {
		env := &fabric.Envelope{ChannelID: "ch", ClientID: "r", Payload: make([]byte, 64)}
		envs[i] = env.Marshal()
	}
	var (
		appended, peak int64
		// before and after bracket the last compaction that reclaimed
		// bytes: a compaction may advance floors without freeing a whole
		// segment, and such runs leave the pair alone.
		before, after int64
		compactions   int
	)
	observe := func(size int64) {
		if size > peak {
			peak = size
		}
	}
	compact := func(floors map[string]uint64) {
		// Sampled immediately around CompactTo: sampling outside it
		// reports before == after and makes the last check vacuous.
		pre := s.SizeBytes()
		observe(pre)
		applied, err := s.CompactTo(floors)
		if err != nil {
			t.Fatalf("CompactTo(%v): %v", floors, err)
		}
		if len(applied) > 0 {
			compactions++
		}
		if post := s.SizeBytes(); post < pre {
			before, after = pre, post
		}
	}
	var prev cryptoutil.Digest
	for i := 0; i < blocks; i++ {
		b := fabric.NewBlock(uint64(i), prev, envs)
		prev = b.Header.Hash()
		if err := s.Put("ch", b); err != nil {
			t.Fatalf("put block %d: %v", i, err)
		}
		appended += int64(len(b.Marshal())) + 24 // record framing + channel
		if st := s.RetentionState(); policy.Due(st) {
			compact(policy.Plan(st))
		}
		observe(s.SizeBytes())
	}
	// A final explicit compaction, as the admin trigger runs one.
	if floors := policy.Plan(s.RetentionState()); len(floors) > 0 {
		compact(floors)
	}
	observe(s.SizeBytes())

	floor := s.Floor("ch")
	t.Logf("peak %d B, before %d B, after %d B, floor %d, %d compactions",
		peak, before, after, floor, compactions)
	if compactions == 0 || floor == 0 {
		t.Fatalf("retention never compacted: %d compactions, floor %d", compactions, floor)
	}
	// Whole segments are the pruning granularity and one oversized append
	// can land before the next compaction runs.
	if slack := int64(2*segmentBytes + 4096); peak > capBytes+slack {
		t.Fatalf("block store peaked at %d B, cap %d B (+%d B slack)", peak, capBytes, slack)
	}
	if after*2 >= appended {
		t.Fatalf("compaction deleted nothing: %d B on disk after appending ~%d B", after, appended)
	}
	if before <= after {
		t.Fatalf("compaction sampling vacuous: before %d B <= after %d B", before, after)
	}
}
