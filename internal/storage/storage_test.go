package storage

import (
	"bytes"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/fabric"
	"repro/internal/wire"
)

// ---- Checkpointer ------------------------------------------------------

func TestCheckpointerRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCheckpointer(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, found, err := c.Load(); err != nil || found {
		t.Fatalf("empty load: found=%v err=%v", found, err)
	}
	if err := c.Save(41, []byte("snap-a")); err != nil {
		t.Fatal(err)
	}
	if err := c.Save(97, []byte("snap-b")); err != nil {
		t.Fatal(err)
	}
	seq, snap, found, err := c.Load()
	if err != nil || !found {
		t.Fatalf("load: found=%v err=%v", found, err)
	}
	if seq != 97 || string(snap) != "snap-b" {
		t.Fatalf("load = (%d, %q)", seq, snap)
	}
}

func TestCheckpointerIgnoresStaleTemp(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCheckpointer(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Save(7, []byte("durable")); err != nil {
		t.Fatal(err)
	}
	// A crash mid-Save leaves garbage in the temp file; the stable
	// checkpoint must still load.
	if err := os.WriteFile(filepath.Join(dir, checkpointFile+".tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	seq, snap, found, err := c.Load()
	if err != nil || !found || seq != 7 || string(snap) != "durable" {
		t.Fatalf("load = (%d, %q, %v, %v)", seq, snap, found, err)
	}
}

func TestCheckpointerDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCheckpointer(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Save(3, []byte("snapshot-bytes")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, checkpointFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[10] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.Load(); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("corrupt load: %v", err)
	}
}

// ---- BlockStore --------------------------------------------------------

func makeChain(t *testing.T, n int) []*fabric.Block {
	t.Helper()
	blocks := make([]*fabric.Block, 0, n)
	var prev cryptoutil.Digest
	for i := 0; i < n; i++ {
		env := &fabric.Envelope{ChannelID: "ch", ClientID: "c", Payload: []byte{byte(i)}}
		b := fabric.NewBlock(uint64(i), prev, [][]byte{env.Marshal()})
		prev = b.Header.Hash()
		blocks = append(blocks, b)
	}
	if err := fabric.VerifyChain(blocks); err != nil {
		t.Fatalf("test chain invalid: %v", err)
	}
	return blocks
}

// putBlock persists one block through the node storage's (only) block put
// and waits out its durability token.
func putBlock(s *NodeStorage, channel string, b *fabric.Block) error {
	tok, err := s.PutBlockAsync(channel, b)
	if err != nil {
		return err
	}
	return tok.Wait()
}

func TestBlockStoreRecoverAndIdempotence(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenBlockStore(WALConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	chain := makeChain(t, 5)
	for _, b := range chain {
		if err := s.Put("ch", b); err != nil {
			t.Fatal(err)
		}
	}
	// Replay duplicates are silently absorbed.
	if err := s.Put("ch", chain[2]); err != nil {
		t.Fatalf("duplicate put: %v", err)
	}
	// Gaps are refused.
	gap := makeChain(t, 8)[7]
	if err := s.Put("ch", gap); err == nil {
		t.Fatal("gap put succeeded")
	}
	if h := s.Height("ch"); h != 5 {
		t.Fatalf("height = %d", h)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenBlockStore(WALConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	info := s2.Chains()["ch"]
	if info.Height != 5 || info.Floor != 0 {
		t.Fatalf("recovered frontier = %+v", info)
	}
	if info.LastHash != chain[4].Header.Hash() {
		t.Fatal("recovered last hash differs")
	}
	rec, err := s2.ReadBlocks("ch", 0, 5)
	if err != nil {
		t.Fatalf("reading recovered chain: %v", err)
	}
	if len(rec) != 5 {
		t.Fatalf("recovered %d blocks", len(rec))
	}
	if err := fabric.VerifyChain(rec); err != nil {
		t.Fatalf("recovered chain: %v", err)
	}
	for i, b := range rec {
		if !bytes.Equal(b.Marshal(), chain[i].Marshal()) {
			t.Fatalf("block %d differs after recovery", i)
		}
	}
}

// ---- NodeStorage -------------------------------------------------------

func TestNodeStorageRecoverSequence(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for seq := int64(0); seq < 10; seq++ {
		if err := s.AppendDecision(seq, [][]byte{{byte(seq)}, {0xee}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SaveCheckpoint(5, []byte("wrapped-snapshot")); err != nil {
		t.Fatal(err)
	}
	chain := makeChain(t, 3)
	for _, b := range chain {
		if err := putBlock(s, "ch", b); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec := s2.Recovered()
	if rec.CheckpointSeq != 5 || string(rec.Checkpoint) != "wrapped-snapshot" {
		t.Fatalf("checkpoint = (%d, %q)", rec.CheckpointSeq, rec.Checkpoint)
	}
	if len(rec.Decisions) != 4 {
		t.Fatalf("decisions after checkpoint: %d, want 4 (seqs 6..9)", len(rec.Decisions))
	}
	for i, e := range rec.Decisions {
		if e.Seq != int64(6+i) {
			t.Fatalf("decision %d has seq %d", i, e.Seq)
		}
		if len(e.Batch) != 2 || e.Batch[0][0] != byte(e.Seq) {
			t.Fatalf("decision %d batch corrupted: %v", i, e.Batch)
		}
	}
	if info := rec.Chains["ch"]; info.Height != 3 || info.Floor != 0 {
		t.Fatalf("chain frontier recovered: %+v", info)
	}
}

// TestCheckpointGateDefersAsyncSave installs a checkpoint gate, verifies an
// asynchronous save stays deferred while the gate is closed, and that a
// NudgeCheckpoint after opening the gate lands it.
func TestCheckpointGateDefersAsyncSave(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var allow atomic.Bool
	s.SetCheckpointGate(func(seq int64) bool { return allow.Load() })
	for seq := int64(0); seq < 4; seq++ {
		if err := s.AppendDecision(seq, [][]byte{{byte(seq)}}); err != nil {
			t.Fatal(err)
		}
	}
	s.SaveCheckpointAsync(3, []byte("gated-snap"))
	time.Sleep(100 * time.Millisecond)
	if _, _, found, err := s.ckpt.Load(); err != nil || found {
		t.Fatalf("checkpoint saved through a closed gate (found=%v err=%v)", found, err)
	}
	allow.Store(true)
	s.NudgeCheckpoint()
	deadline := time.Now().Add(2 * time.Second)
	for {
		seq, snap, found, err := s.ckpt.Load()
		if err != nil {
			t.Fatal(err)
		}
		if found {
			if seq != 3 || string(snap) != "gated-snap" {
				t.Fatalf("checkpoint = (%d, %q)", seq, snap)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("checkpoint never saved after the gate opened")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointGateClosedAtCloseDropsSave checks the fail-safe direction: a
// save still deferred when the storage closes is simply dropped — recovery
// replays from the previous checkpoint (here: none) with zero data loss.
func TestCheckpointGateClosedAtCloseDropsSave(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.SetCheckpointGate(func(seq int64) bool { return false })
	for seq := int64(0); seq < 4; seq++ {
		if err := s.AppendDecision(seq, [][]byte{{byte(seq)}}); err != nil {
			t.Fatal(err)
		}
	}
	s.SaveCheckpointAsync(3, []byte("never-lands"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec := s2.Recovered()
	if rec.CheckpointSeq != -1 {
		t.Fatalf("deferred checkpoint landed anyway: seq %d", rec.CheckpointSeq)
	}
	if len(rec.Decisions) != 4 {
		t.Fatalf("decisions lost with the checkpoint deferred: %d, want 4", len(rec.Decisions))
	}
}

// TestNodeStorageReplayIdempotent re-appends recovered decisions and blocks
// (exactly what a recovering node's re-execution does) and checks nothing
// duplicates: a second recovery sees the identical state.
func TestNodeStorageReplayIdempotent(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	chain := makeChain(t, 4)
	for seq := int64(0); seq < 6; seq++ {
		if err := s.AppendDecision(seq, [][]byte{{byte(seq)}}); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range chain {
		if err := putBlock(s, "ch", b); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := s2.Recovered()
	// Recovery-style replay: push everything we just recovered back in
	// (a recovering node re-executes the logged decisions, which re-seals
	// and re-persists the tail blocks).
	for _, e := range rec.Decisions {
		if err := s2.AppendDecision(e.Seq, e.Batch); err != nil {
			t.Fatal(err)
		}
	}
	replayed, err := s2.ReadBlocks("ch", 0, len(chain))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range replayed {
		if err := putBlock(s2, "ch", b); err != nil {
			t.Fatal(err)
		}
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	s3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	rec3 := s3.Recovered()
	if len(rec3.Decisions) != len(rec.Decisions) {
		t.Fatalf("decisions grew under replay: %d -> %d", len(rec.Decisions), len(rec3.Decisions))
	}
	if rec3.Chains["ch"].Height != rec.Chains["ch"].Height {
		t.Fatalf("blocks grew under replay: %d -> %d", rec.Chains["ch"].Height, rec3.Chains["ch"].Height)
	}
}

// TestTornBlockWALRecoversToDurablePrefix hard-closes the block WAL
// mid-write (truncating the tail, as a crash during the last write would)
// and checks that reopening yields a ledger that verifies at the height of
// the last fully durable block.
func TestTornBlockWALRecoversToDurablePrefix(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	chain := makeChain(t, 6)
	for _, b := range chain {
		if err := putBlock(s, "ch", b); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	segs, _ := filepath.Glob(filepath.Join(dir, "log", "*"+segSuffix))
	if len(segs) == 0 {
		t.Fatal("no log segments on disk")
	}
	last := segs[len(segs)-1]
	info, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, info.Size()-5); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	defer s2.Close()
	rec := s2.Recovered()
	chainInfo := rec.Chains["ch"]
	if chainInfo.Height != 5 {
		t.Fatalf("recovered height %d after torn tail, want 5", chainInfo.Height)
	}
	led := fabric.RestoreLedger("ch", s2, fabric.ChainState{
		Floor:    chainInfo.Floor,
		Anchor:   chainInfo.Anchor,
		Height:   chainInfo.Height,
		LastHash: chainInfo.LastHash,
	})
	if err := led.VerifyChain(); err != nil {
		t.Fatalf("recovered chain does not verify: %v", err)
	}
	if led.Height() != 5 {
		t.Fatalf("height = %d, want 5 (last durable block)", led.Height())
	}
	// The torn block can be re-appended and the chain continues cleanly.
	if err := led.Append(chain[5]); err != nil {
		t.Fatalf("re-appending torn block: %v", err)
	}
	if got := s2.BlockHeight("ch"); got != 6 {
		t.Fatalf("store height after re-append = %d, want 6", got)
	}
}

func TestNodeStorageCheckpointPrunesSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	batch := [][]byte{make([]byte, 100)}
	for seq := int64(0); seq < 50; seq++ {
		if err := s.AppendDecision(seq, batch); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := filepath.Glob(filepath.Join(dir, "log", "*"+segSuffix))
	if err := s.SaveCheckpoint(45, []byte("snap")); err != nil {
		t.Fatal(err)
	}
	after, _ := filepath.Glob(filepath.Join(dir, "log", "*"+segSuffix))
	if len(after) >= len(before) {
		t.Fatalf("checkpoint pruned nothing: %d -> %d segments", len(before), len(after))
	}
}

func TestBlockStoreRandomAccessReads(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments so the reads span several files.
	s, err := OpenBlockStore(WALConfig{Dir: dir, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	chainA := makeChain(t, 20)
	chainB := makeChain(t, 10)
	// Interleave two channels so wal indices of one channel are not
	// contiguous.
	for i := 0; i < 20; i++ {
		if err := s.Put("alpha", chainA[i]); err != nil {
			t.Fatalf("put alpha %d: %v", i, err)
		}
		if i < 10 {
			if err := s.Put("beta", chainB[i]); err != nil {
				t.Fatalf("put beta %d: %v", i, err)
			}
		}
	}
	check := func(s *BlockStore, label string) {
		t.Helper()
		got, err := s.ReadBlocks("alpha", 5, 7)
		if err != nil {
			t.Fatalf("%s: ReadBlocks: %v", label, err)
		}
		if len(got) != 7 || got[0].Header.Number != 5 || got[6].Header.Number != 11 {
			t.Fatalf("%s: ReadBlocks(alpha,5,7) = %d blocks starting at %d", label, len(got), got[0].Header.Number)
		}
		for i, b := range got {
			if b.Header.Hash() != chainA[5+i].Header.Hash() {
				t.Fatalf("%s: block %d content differs", label, 5+i)
			}
		}
		// Reads past the head clamp; reads at the head return nil.
		if got, err := s.ReadBlocks("beta", 8, 10); err != nil || len(got) != 2 {
			t.Fatalf("%s: clamped read = %d blocks, err %v", label, len(got), err)
		}
		if got, err := s.ReadBlocks("beta", 10, 5); err != nil || got != nil {
			t.Fatalf("%s: read at head = %v, err %v", label, got, err)
		}
		if got, err := s.ReadBlocks("nope", 0, 5); err != nil || got != nil {
			t.Fatalf("%s: unknown channel = %v, err %v", label, got, err)
		}
	}
	check(s, "live")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The number->index map is rebuilt at open: reads work after restart.
	s2, err := OpenBlockStore(WALConfig{Dir: dir, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	s2.Chains() // release the recovered frontiers; reads must hit disk
	check(s2, "reopened")
}

func TestNodeStorageLedgerPagesBlocksFromDisk(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// A persistent ledger over a read-capable backend keeps only a bounded
	// tail in memory; Range and VerifyChain page the rest back in.
	led := fabric.NewPersistentLedger("ch", s)
	// Go well past retain plus its trim slack so blocks genuinely page out.
	// The run is enqueued without waiting and its last token waited out
	// once, the way the node persists a contiguous run.
	chain := makeChain(t, fabric.DefaultLedgerRetain*2)
	var last fabric.DurableToken
	for _, b := range chain {
		if last, err = led.AppendSealedAsync(b); err != nil {
			t.Fatalf("append %d: %v", b.Header.Number, err)
		}
	}
	if err := last.Wait(); err != nil {
		t.Fatalf("persisting the run: %v", err)
	}
	if got := led.Height(); got != uint64(len(chain)) {
		t.Fatalf("height = %d, want %d", got, len(chain))
	}
	b0, err := led.Block(0)
	if err != nil {
		t.Fatalf("Block(0): %v", err)
	}
	if b0.Header.Hash() != chain[0].Header.Hash() {
		t.Fatal("paged-in genesis differs")
	}
	mixed, err := led.Range(uint64(len(chain))-60, uint64(len(chain)))
	if err != nil {
		t.Fatalf("Range: %v", err)
	}
	if len(mixed) != 60 {
		t.Fatalf("Range = %d blocks, want 60", len(mixed))
	}
	if err := led.VerifyChain(); err != nil {
		t.Fatalf("VerifyChain across the paged boundary: %v", err)
	}
}

// ---- unified commit log -------------------------------------------------

// TestCommitWaveSingleFsyncForDecisionAndBlock is the acceptance check of
// the unified commit log: a decision record and the block record it
// sealed, enqueued while the wave is stalled at Options.SyncHook, commit
// together in ONE wave with exactly ONE fsync (counted at the WAL's
// fsync choke point). Two physical logs would have paid two.
func TestCommitWaveSingleFsyncForDecisionAndBlock(t *testing.T) {
	release := make(chan struct{})
	var waves atomic.Uint64
	s, err := Open(t.TempDir(), Options{SyncHook: func() {
		waves.Add(1)
		<-release
	}})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Close()
	s.Recovered()

	// Both kinds pending in the same stalled wave: the decision and the
	// block it would have sealed.
	decTok := s.AppendDecisionAsync(0, [][]byte{[]byte("op")})
	blkTok, err := s.PutBlockAsync("ch", makeChain(t, 1)[0])
	if err != nil {
		t.Fatalf("put async: %v", err)
	}
	time.Sleep(20 * time.Millisecond) // let both enqueues land behind the hook
	syncsBefore := s.wal.SyncCount()
	wavesBefore := waves.Load()

	close(release)
	if err := decTok.Wait(); err != nil {
		t.Fatalf("decision token: %v", err)
	}
	if err := blkTok.Wait(); err != nil {
		t.Fatalf("block token: %v", err)
	}

	if got := s.wal.SyncCount() - syncsBefore; got != 1 {
		t.Fatalf("decision+block wave issued %d fsyncs, want exactly 1", got)
	}
	if got := waves.Load(); got != wavesBefore {
		// Both tokens completed in the wave that was stalled: no second
		// wave ran for the block record.
		t.Fatalf("expected one joint wave, saw %d extra", got-wavesBefore)
	}
	// And the records really multiplexed into one log, in enqueue order.
	if decTok.Index() != 1 || blkTok.(*Token).Index() != 2 {
		t.Fatalf("record indices = (%d, %d), want (1, 2)", decTok.Index(), blkTok.(*Token).Index())
	}
}

// interleaveDecisionsAndBlocks drives n decision+block pairs through a
// NodeStorage (decision seq i seals block i), the unified log's natural
// record pattern.
func interleaveDecisionsAndBlocks(t *testing.T, s *NodeStorage, chain []*fabric.Block) {
	t.Helper()
	for i, b := range chain {
		if err := s.AppendDecision(int64(i), [][]byte{{byte(i)}}); err != nil {
			t.Fatalf("decision %d: %v", i, err)
		}
		if err := putBlock(s, "ch", b); err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
	}
}

// logSegments lists the unified log's segment files.
func logSegments(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "log", "*"+segSuffix))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// TestTwoConditionReclamationCheckpointFirst is one of the two crash
// windows of the shared-segment reclamation rule: the consensus
// checkpoint advances (decision records become dead) while the retention
// floor stays put (block records still live). No segment may be deleted
// yet — and a kill in that window must recover every unpruned block and
// replay the live decisions with no gap. Compaction afterwards, with
// both conditions finally true, completes the reclamation.
func TestTwoConditionReclamationCheckpointFirst(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	chain := makeChain(t, 30)
	interleaveDecisionsAndBlocks(t, s, chain)
	before := len(logSegments(t, dir))
	if before < 4 {
		t.Fatalf("want several shared segments, got %d", before)
	}

	// Condition 1 only: checkpoint at seq 15 kills decisions 0..15, but
	// every block is still above the (zero) retention floor, so the
	// segments must survive.
	if err := s.SaveCheckpoint(15, []byte("snap")); err != nil {
		t.Fatal(err)
	}
	if got := len(logSegments(t, dir)); got != before {
		t.Fatalf("checkpoint alone deleted segments (%d -> %d) despite live blocks", before, got)
	}

	// Kill in the window (dir snapshot, not a graceful close).
	crashDir := t.TempDir()
	copyTree(t, dir, crashDir)
	crashed, err := Open(crashDir, Options{SegmentBytes: 1024})
	if err != nil {
		t.Fatalf("reopen crash snapshot: %v", err)
	}
	rec := crashed.Recovered()
	if rec.CheckpointSeq != 15 {
		t.Fatalf("recovered checkpoint %d, want 15", rec.CheckpointSeq)
	}
	if len(rec.Decisions) != 14 || rec.Decisions[0].Seq != 16 || rec.Decisions[13].Seq != 29 {
		t.Fatalf("recovered %d decisions (%v..), want gapless 16..29", len(rec.Decisions), rec.Decisions[0].Seq)
	}
	for i, e := range rec.Decisions {
		if e.Seq != int64(16+i) {
			t.Fatalf("decision gap: entry %d has seq %d", i, e.Seq)
		}
	}
	got, err := crashed.ReadBlocks("ch", 0, 30)
	if err != nil || len(got) != 30 {
		t.Fatalf("unpruned blocks after crash: %d, err %v", len(got), err)
	}
	if err := fabric.VerifyChain(got); err != nil {
		t.Fatalf("recovered chain: %v", err)
	}
	crashed.Close()

	// Condition 2 lands: compaction raises the floor past the old
	// segments, and with both conditions true they are reclaimed.
	if _, err := s.CompactTo(map[string]uint64{"ch": 25}); err != nil {
		t.Fatal(err)
	}
	if got := len(logSegments(t, dir)); got >= before {
		t.Fatalf("compaction after checkpoint reclaimed nothing: %d -> %d segments", before, got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTwoConditionReclamationRetentionFirst is the reverse crash window:
// the retention floor advances (blocks become dead) while the consensus
// checkpoint lags (decision records still live). The compaction's
// manifest lands but no segment may be deleted — and a kill in that
// window must replay ALL decisions gapless and serve the full retained
// window. A later checkpoint completes the reclamation.
func TestTwoConditionReclamationRetentionFirst(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	chain := makeChain(t, 30)
	interleaveDecisionsAndBlocks(t, s, chain)
	before := len(logSegments(t, dir))
	if before < 4 {
		t.Fatalf("want several shared segments, got %d", before)
	}

	// Condition 2 only: the floor rises to 20, but decision 0 is still
	// live (no checkpoint), pinning every segment.
	applied, err := s.CompactTo(map[string]uint64{"ch": 20})
	if err != nil || applied["ch"] != 20 {
		t.Fatalf("CompactTo: applied %v, err %v", applied, err)
	}
	if got := len(logSegments(t, dir)); got != before {
		t.Fatalf("compaction deleted segments (%d -> %d) despite live decisions", before, got)
	}

	// Kill in the window.
	crashDir := t.TempDir()
	copyTree(t, dir, crashDir)
	crashed, err := Open(crashDir, Options{SegmentBytes: 1024})
	if err != nil {
		t.Fatalf("reopen crash snapshot: %v", err)
	}
	rec := crashed.Recovered()
	if len(rec.Decisions) != 30 {
		t.Fatalf("recovered %d decisions, want all 30 (no checkpoint yet)", len(rec.Decisions))
	}
	for i, e := range rec.Decisions {
		if e.Seq != int64(i) {
			t.Fatalf("decision gap: entry %d has seq %d", i, e.Seq)
		}
	}
	if info := rec.Chains["ch"]; info.Floor != 20 || info.Height != 30 {
		t.Fatalf("recovered frontier = %+v, want floor 20 height 30", info)
	}
	got, err := crashed.ReadBlocks("ch", 20, 30)
	if err != nil || len(got) != 10 || got[0].Header.Number != 20 {
		t.Fatalf("retained window after crash: %d blocks, err %v", len(got), err)
	}
	if err := fabric.VerifyChain(got); err != nil {
		t.Fatalf("retained chain: %v", err)
	}
	if _, err := crashed.ReadBlocks("ch", 0, 5); !errors.Is(err, fabric.ErrPruned) {
		t.Fatalf("below-floor read after crash: %v", err)
	}
	crashed.Close()

	// Condition 1 lands: the checkpoint kills the decisions, and the
	// dead segments go.
	if err := s.SaveCheckpoint(29, []byte("snap")); err != nil {
		t.Fatal(err)
	}
	if got := len(logSegments(t, dir)); got >= before {
		t.Fatalf("checkpoint after compaction reclaimed nothing: %d -> %d segments", before, got)
	}
	// The survivors still serve the whole retained window.
	got2, err := s.ReadBlocks("ch", 20, 30)
	if err != nil || len(got2) != 10 {
		t.Fatalf("retained window after reclamation: %d blocks, err %v", len(got2), err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRebaseMarkerReplaysWithoutManifest covers the channel-meta record's
// crash window: the rebase marker is fsynced into the unified log but
// the node dies before the manifest rewrite. The typed recovery walk
// must replay the marker and come back with the rebased chain.
func TestRebaseMarkerReplaysWithoutManifest(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Recovered()
	chain := makeChain(t, 5)
	interleaveDecisionsAndBlocks(t, s, chain)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate the crash window by appending the marker directly to the
	// raw log: exactly the bytes RebaseBlocks fsyncs before it touches
	// the manifest (which here never gets written).
	anchor := cryptoutil.Hash([]byte("pruned-predecessor"))
	wal, err := OpenWAL(WALConfig{Dir: filepath.Join(dir, "log")})
	if err != nil {
		t.Fatal(err)
	}
	w := wire.NewWriter(64)
	w.PutByte(recChannelMeta)
	w.PutByte(metaRebase)
	w.PutString("ch")
	w.PutUint64(20)
	w.PutRaw(anchor[:])
	if _, err := wal.Append(w.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after marker-only rebase: %v", err)
	}
	defer s2.Close()
	rec := s2.Recovered()
	info := rec.Chains["ch"]
	if info.Floor != 20 || info.Height != 20 || info.Anchor != anchor {
		t.Fatalf("recovered frontier = %+v, want rebased floor/height 20", info)
	}
	// Decisions replay unaffected by the block-side rebase.
	if len(rec.Decisions) != 5 {
		t.Fatalf("recovered %d decisions, want 5", len(rec.Decisions))
	}
	b20 := fabric.NewBlock(20, anchor, [][]byte{chain[0].Envelopes[0]})
	if err := putBlock(s2, "ch", b20); err != nil {
		t.Fatalf("put after recovered rebase: %v", err)
	}
	if _, err := s2.ReadBlocks("ch", 0, 5); !errors.Is(err, fabric.ErrPruned) {
		t.Fatalf("stale read after recovered rebase: %v", err)
	}
}

// Replay decodes every record of a segment out of one buffer. What it keeps
// — the decision suffix, each channel's newest header — must own its bytes,
// so that neither the segment buffer stays alive behind it nor a reused one
// can change it. Block records read back later come one buffer per record
// (readRecordAt), so decodeBlockRecord itself returns a view.
func TestReplayedRecordsSurviveTheirInput(t *testing.T) {
	w := wire.NewWriter(64)
	w.PutByte(recDecision)
	w.PutInt64(9)
	w.PutBytesSlice([][]byte{[]byte("first"), []byte("second")})
	rec := w.Bytes()
	entry, err := decodeDecision(rec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rec {
		rec[i] = 0xEE
	}
	if entry.Seq != 9 || string(entry.Batch[0]) != "first" || string(entry.Batch[1]) != "second" {
		t.Fatalf("decision changed with its input: %q", entry.Batch)
	}

	blockRecord := func(b *fabric.Block) []byte {
		w := wire.NewWriter(64)
		w.PutByte(recBlock)
		w.PutString("ch")
		b.MarshalInto(w)
		return w.Bytes()
	}
	first := fabric.NewBlock(0, cryptoutil.Digest{}, [][]byte{[]byte("env-a"), []byte("env-b")})
	second := fabric.NewBlock(1, first.Header.Hash(), [][]byte{[]byte("env-c")})
	s := newBlockStore(t.TempDir(), nil, false)
	segment := new([256]byte) // an object of its own, so that it can carry a finalizer
	freed := make(chan struct{})
	runtime.SetFinalizer(segment, func(*[256]byte) { close(freed) })
	if err := s.applyRecord(1, segment[:copy(segment[:], blockRecord(first))]); err != nil {
		t.Fatal(err)
	}
	segment = nil
	for i := 0; i < 5; i++ {
		runtime.GC()
	}
	select {
	case <-freed:
	case <-time.After(5 * time.Second):
		t.Fatal("the walk keeps its input alive behind the newest block")
	}
	if err := s.applyRecord(2, blockRecord(second)); err != nil {
		t.Fatalf("the walk lost the newest header: %v", err)
	}

	// The read path's decode copies nothing: one buffer per record is
	// already the block's own.
	rec = blockRecord(first)
	_, view, err := decodeBlockRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if env := view.Envelopes[1]; &env[len(env)-1] != &rec[len(rec)-2] {
		t.Fatal("decodeBlockRecord copied the record")
	}
}

// goldenDecisionRecord is the decision record of seq 2^40+3 and
// goldenRequests as the log writes it: the kind, the seq, a count of
// entries, and each entry — one run of requests, as the consensus layer
// writes it — length-prefixed. Recovery replays these bytes into the
// consensus layer, whose batch digest is over the same runs, so the record
// must not change with the form the batch reaches the log in.
const goldenDecisionRecord = "" +
	"04" + "0000010000000003" + "03" +
	"1f" + "0966652d636c69656e74" + "4000000000000005" + "02" + "0a656e76656c6f70652d61" + "00" +
	"10" + "00" + "0000000000000007" + "01" + "0500ff206f70" +
	"1d" + "08636c69656e742d62" + "0000000000000001" + "01" + "0a656e76656c6f70652d62"

// goldenRun is a run of requests as the consensus layer's batches hold
// them: a DecisionBatch entry is PutString(client), PutUint64(first),
// PutUvarint(len(ops)) and each op PutBytes.
type goldenRun struct {
	client string
	first  uint64
	ops    []string
}

var goldenRequests = goldenBatch{
	{"fe-client", 1<<62 + 5, []string{"envelope-a", ""}}, {"", 7, []string{"\x00\xff op"}}, {"client-b", 1, []string{"envelope-b"}},
}

// goldenBatch is a DecisionBatch that writes its runs' fields.
type goldenBatch []goldenRun

func (b goldenBatch) Len() int { return len(b) }
func (b goldenBatch) EntrySize(i int) int {
	size := wire.BytesSize(len(b[i].client)) + 8 + wire.UvarintSize(uint64(len(b[i].ops)))
	for _, op := range b[i].ops {
		size += wire.BytesSize(len(op))
	}
	return size
}
func (b goldenBatch) PutEntry(w *wire.Writer, i int) {
	w.PutString(b[i].client)
	w.PutUint64(b[i].first)
	w.PutUvarint(uint64(len(b[i].ops)))
	for _, op := range b[i].ops {
		w.PutString(op)
	}
}

// entries is b as encoded entries.
func (b goldenBatch) entries() [][]byte {
	out := make([][]byte, len(b))
	for i := range b {
		w := wire.NewWriter(b.EntrySize(i))
		b.PutEntry(w, i)
		out[i] = w.Bytes()
	}
	return out
}

// A decision record holds the same bytes whether the batch reaches the log
// as encoded entries or as a DecisionBatch that writes its own entries, and
// replays as those entries.
func TestDecisionRecordBytesAreGolden(t *testing.T) {
	const seq = 1<<40 + 3
	for name, appendTo := range map[string]func(*NodeStorage) error{
		"entries": func(s *NodeStorage) error { return s.AppendDecision(seq, goldenRequests.entries()) },
		"batch":   func(s *NodeStorage) error { return s.AppendBatchAsync(seq, goldenRequests).Wait() },
	} {
		dir := t.TempDir()
		s, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := appendTo(s); err != nil {
			t.Fatalf("%s: append: %v", name, err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		wal, err := OpenWAL(WALConfig{Dir: filepath.Join(dir, "log"), NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		var recs []string
		if err := wal.Replay(func(_ uint64, rec []byte) error {
			recs = append(recs, hex.EncodeToString(rec))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		wal.Close()
		if len(recs) != 1 || recs[0] != goldenDecisionRecord {
			t.Fatalf("%s: the log holds %d records\n got %v\nwant %s", name, len(recs), recs, goldenDecisionRecord)
		}
		s, err = Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		st := s.Recovered()
		s.Close()
		want := goldenRequests.entries()
		if len(st.Decisions) != 1 || st.Decisions[0].Seq != seq || len(st.Decisions[0].Batch) != len(want) {
			t.Fatalf("%s: recovered %+v", name, st.Decisions)
		}
		for i, e := range st.Decisions[0].Batch {
			if !bytes.Equal(e, want[i]) {
				t.Fatalf("%s: recovered entry %d is %x, want %x", name, i, e, want[i])
			}
		}
	}
}

// A data directory whose log holds decision records of the retired format
// is refused with a typed error, not replayed as batches that do not read.
// The fixture (testdata/retired-decision-log) is the log an earlier version
// wrote for two decisions, each of two requests as one entry apiece.
func TestRetiredDecisionRecordsAreRefused(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join("testdata", "retired-decision-log", "log", "00000000000000000001.seg")
	seg, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "log"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "log", filepath.Base(src)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{NoSync: true})
	if err == nil {
		s.Close()
		t.Fatal("a log of retired decision records opened")
	}
	if !errors.Is(err, ErrRetiredRecord) {
		t.Fatalf("opening a log of retired decision records: %v, want ErrRetiredRecord", err)
	}
}
