package storage

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/storage/faultfs"
	"repro/internal/storage/vfs"
)

// flipByte XORs one bit of the byte at off in path — at-rest corruption
// injected underneath every storage abstraction.
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatalf("read byte: %v", err)
	}
	b[0] ^= 0x01
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatalf("write byte: %v", err)
	}
}

// TestFlipAByteBlockRecordTyped flips one payload byte of a durable block
// record at rest: the CRC-checked read path must answer a typed
// *RecordCorruptError carrying the block coordinates a repair needs, and
// the error must keep unwrapping to ErrCorrupt.
func TestFlipAByteBlockRecordTyped(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Close()
	s.Recovered()
	chain := makeChain(t, 5)
	for _, b := range chain {
		if err := putBlock(s, "ch", b); err != nil {
			t.Fatalf("put: %v", err)
		}
	}

	path, off, length, err := s.BlockSpan("ch", 2)
	if err != nil {
		t.Fatalf("block span: %v", err)
	}
	flipByte(t, path, off+length-1)

	_, err = s.ReadBlocks("ch", 2, 1)
	if err == nil {
		t.Fatal("read of a rotted block record succeeded")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt read error %v does not unwrap to ErrCorrupt", err)
	}
	var rce *RecordCorruptError
	if !errors.As(err, &rce) {
		t.Fatalf("corrupt read error %v is not a *RecordCorruptError", err)
	}
	if rce.Channel != "ch" || rce.Num != 2 {
		t.Fatalf("corrupt record located at %s/%d, want ch/2", rce.Channel, rce.Num)
	}
	if rce.Segment == "" || rce.Offset != off {
		t.Fatalf("corrupt record frame at %s:%d, want %s:%d", rce.Segment, rce.Offset, path, off)
	}

	// The neighbors are untouched: corruption detection is per record.
	if _, err := s.ReadBlocks("ch", 3, 1); err != nil {
		t.Fatalf("reading the record after the rotted one: %v", err)
	}
}

// TestScrubOnceRepairsFlippedBlock rots a durable block record, then runs
// one scrub pass with a repair callback (here fed from a pristine copy,
// standing in for the f+1-verified peer fetch): the pass must find
// exactly the rotted record, repair it in place, verify the repair by
// re-reading, and the rewritten segment must survive a restart.
func TestScrubOnceRepairsFlippedBlock(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	s.Recovered()
	chain := makeChain(t, 5)
	for _, b := range chain {
		if err := putBlock(s, "ch", b); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	path, off, length, err := s.BlockSpan("ch", 2)
	if err != nil {
		t.Fatalf("block span: %v", err)
	}
	flipByte(t, path, off+length-1)

	res := s.ScrubOnce(func(channel string, num uint64) error {
		return s.RepairBlock(channel, chain[num])
	})
	if res.Checked != 5 {
		t.Fatalf("scrub checked %d records, want 5", res.Checked)
	}
	if len(res.Corrupt) != 1 || res.Corrupt[0].Channel != "ch" || res.Corrupt[0].Num != 2 {
		t.Fatalf("scrub found %+v, want exactly ch/2", res.Corrupt)
	}
	if len(res.Repaired) != 1 || res.Repaired[0].Num != 2 {
		t.Fatalf("scrub repaired %+v, want exactly ch/2", res.Repaired)
	}

	// A clean follow-up pass: the heal really landed.
	if res := s.ScrubOnce(nil); len(res.Corrupt) != 0 {
		t.Fatalf("second scrub still finds corruption: %+v", res.Corrupt)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// The rewritten segment must recover: the repair is durable, not a
	// cache artifact.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	s2.Recovered()
	got, err := s2.ReadBlocks("ch", 0, 5)
	if err != nil {
		t.Fatalf("reading repaired chain after restart: %v", err)
	}
	if len(got) != 5 || got[2].Header.Hash() != chain[2].Header.Hash() {
		t.Fatalf("repaired chain diverges after restart")
	}
}

// TestFlipAByteCheckpointFallsBackToPrev rots the stable checkpoint after
// a second save demoted the first generation to .prev: Load must answer
// the previous generation (an older checkpoint only lengthens replay)
// instead of failing the boot.
func TestFlipAByteCheckpointFallsBackToPrev(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCheckpointer(dir, nil)
	if err != nil {
		t.Fatalf("new checkpointer: %v", err)
	}
	if err := c.Save(7, []byte("gen-one")); err != nil {
		t.Fatalf("save 1: %v", err)
	}
	if err := c.Save(9, []byte("gen-two")); err != nil {
		t.Fatalf("save 2: %v", err)
	}
	stable := filepath.Join(dir, "checkpoint")
	info, err := os.Stat(stable)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	flipByte(t, stable, info.Size()-1)

	seq, snapshot, found, err := c.Load()
	if err != nil {
		t.Fatalf("load with rotted stable copy: %v", err)
	}
	if !found || seq != 7 || string(snapshot) != "gen-one" {
		t.Fatalf("load = seq %d %q found=%v, want the .prev generation (7, gen-one)", seq, snapshot, found)
	}
}

// TestFlipAByteMembershipFailsFast rots the durable membership record:
// recovery must refuse to boot with a typed *MembershipCorruptError — a
// node recovered into a stale or corrupt group view is a safety
// violation, so there is deliberately no fallback generation.
func TestFlipAByteMembershipFailsFast(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	s.Recovered()
	if err := s.SaveMembership(&MembershipRecord{
		Epoch:   3,
		Members: []int32{0, 1, 2},
		Weights: map[int32]uint32{0: 1, 1: 1, 2: 1},
	}); err != nil {
		t.Fatalf("save membership: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	path := filepath.Join(dir, "membership")
	info, err := os.Stat(path)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	flipByte(t, path, info.Size()/2)

	_, err = Open(dir, Options{})
	if err == nil {
		t.Fatal("open booted on a rotted membership record")
	}
	if !errors.Is(err, ErrMembershipCorrupt) {
		t.Fatalf("boot error %v does not unwrap to ErrMembershipCorrupt", err)
	}
	var mce *MembershipCorruptError
	if !errors.As(err, &mce) || mce.Path != path {
		t.Fatalf("boot error %v is not a typed report naming %s", err, path)
	}
}

// TestFsyncFailurePoisonsLog is the fsyncgate fail-fast contract: one
// failed wave fsync permanently poisons the commit log — the failing
// wave's tokens error, every later append errors with ErrLogPoisoned,
// and the health probe reports it. No retry may ever succeed, because
// the kernel dropped the dirty pages the moment the fsync failed.
func TestFsyncFailurePoisonsLog(t *testing.T) {
	ffs := faultfs.New(nil, 1)
	ffs.SetPathFilter(func(p string) bool { return strings.HasSuffix(p, ".seg") })
	s, err := Open(t.TempDir(), Options{FS: ffs})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Close()
	s.Recovered()
	if err := s.AppendDecision(0, [][]byte{[]byte("op")}); err != nil {
		t.Fatalf("healthy append: %v", err)
	}

	ffs.FailSyncs(1)
	tok := s.AppendDecisionAsync(1, [][]byte{[]byte("doomed")})
	if err := tok.Wait(); !errors.Is(err, ErrLogPoisoned) {
		t.Fatalf("token after failed fsync = %v, want ErrLogPoisoned (the wave must not be acked)", err)
	}
	if err := s.Poisoned(); !errors.Is(err, ErrLogPoisoned) {
		t.Fatalf("Poisoned() = %v, want ErrLogPoisoned", err)
	}
	// The injected failure was one-shot: syncs work again. The log must
	// stay poisoned anyway — that is the fail-fast point.
	if err := s.AppendDecision(2, [][]byte{[]byte("late")}); !errors.Is(err, ErrLogPoisoned) {
		t.Fatalf("append after poisoning = %v, want ErrLogPoisoned", err)
	}
	if err := putBlock(s, "ch", makeChain(t, 1)[0]); !errors.Is(err, ErrLogPoisoned) {
		t.Fatalf("block put after poisoning = %v, want ErrLogPoisoned", err)
	}
}

// TestFsyncCrashWindowFailFast drives the exact crash window fsyncgate
// made famous, on a page-cache-faithful filesystem (writes are buffered
// and a failed fsync DISCARDS them): with fail-fast on, the wave whose
// fsync failed errors its tokens — nothing is acked — so the record
// missing after the crash was never promised to anyone.
func TestFsyncCrashWindowFailFast(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New(nil, 2)
	ffs.SetPathFilter(func(p string) bool { return strings.HasSuffix(p, ".seg") })
	s, err := Open(dir, Options{FS: ffs})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	s.Recovered()
	if err := s.AppendDecision(0, [][]byte{[]byte("durable")}); err != nil {
		t.Fatalf("healthy append: %v", err)
	}

	ffs.SetCrashable(true)
	ffs.FailSyncs(1)
	tok := s.AppendDecisionAsync(1, [][]byte{[]byte("in-the-window")})
	if err := tok.Wait(); err == nil {
		t.Fatal("write in the crash window was acked despite the failed fsync")
	}

	// Crash: dirty pages die, the process goes away.
	ffs.DropDirty()
	crashDir := t.TempDir()
	copyTree(t, dir, crashDir)
	crashed, err := Open(crashDir, Options{})
	if err != nil {
		t.Fatalf("open crash snapshot: %v", err)
	}
	defer crashed.Close()
	rec := crashed.Recovered()
	if len(rec.Decisions) != 1 || rec.Decisions[0].Seq != 0 {
		t.Fatalf("crash snapshot recovered %+v, want only the durable decision 0", rec.Decisions)
	}
	// Decision 1 is gone — but its token errored, so no ack was given:
	// fail-fast turned silent loss into an honest failure.
}

// lyingSyncFS is the broken disk stack the fail-fast check defends
// against, injected from outside through the vfs seam: file flushes
// report success even when the filesystem underneath failed them (the
// pre-fsyncgate behavior of retrying or ignoring a failed fsync).
type lyingSyncFS struct{ vfs.FS }

func (fs lyingSyncFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return lyingSyncFile{f}, nil
}

type lyingSyncFile struct{ vfs.File }

func (f lyingSyncFile) Sync() error     { _ = f.File.Sync(); return nil }
func (f lyingSyncFile) Datasync() error { _ = f.File.Datasync(); return nil }

// TestFsyncCrashWindowTeethLosesAckedWrite proves the fail-fast check has
// teeth: when the flush error never reaches the log (swallowed by a lying
// layer over the page-dropping filesystem — the wave is acked as if it
// were durable), the same crash silently loses a write the caller was
// told is durable.
func TestFsyncCrashWindowTeethLosesAckedWrite(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New(nil, 3)
	ffs.SetPathFilter(func(p string) bool { return strings.HasSuffix(p, ".seg") })
	s, err := Open(dir, Options{FS: lyingSyncFS{ffs}})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	s.Recovered()
	if err := s.AppendDecision(0, [][]byte{[]byte("durable")}); err != nil {
		t.Fatalf("healthy append: %v", err)
	}

	ffs.SetCrashable(true)
	ffs.FailSyncs(1)
	tok := s.AppendDecisionAsync(1, [][]byte{[]byte("acked-then-lost")})
	if err := tok.Wait(); err != nil {
		t.Fatalf("with the flush error swallowed the wave must be acked, got %v", err)
	}
	if n := ffs.Stats().SyncFailures; n != 1 {
		t.Fatalf("injected %d sync failures, want 1 (the fault never fired)", n)
	}

	// Crash. The acked decision was only ever in the dropped dirty pages.
	ffs.DropDirty()
	crashDir := t.TempDir()
	copyTree(t, dir, crashDir)
	crashed, err := Open(crashDir, Options{})
	if err != nil {
		t.Fatalf("open crash snapshot: %v", err)
	}
	defer crashed.Close()
	rec := crashed.Recovered()
	for _, d := range rec.Decisions {
		if d.Seq == 1 {
			t.Fatal("decision 1 survived the crash; the teeth scenario did not bite")
		}
	}
	// The acked write is gone: exactly the silent loss fail-fast prevents.
}
