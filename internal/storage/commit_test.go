package storage

import (
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMultiplexedCommitAndRecover drives concurrent appends of mixed
// record kinds into ONE WAL (the unified commit log's arrangement) and
// checks the core contracts: every append commits, indices stay dense and
// FIFO, and a reopen replays everything back in order.
func TestMultiplexedCommitAndRecover(t *testing.T) {
	dir := t.TempDir()
	wal, err := OpenWAL(WALConfig{Dir: dir})
	if err != nil {
		t.Fatalf("open: %v", err)
	}

	const total = 400
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Even goroutines mimic decision appenders, odd ones block
			// appenders: both kinds multiplex into the same log.
			kind := recDecision
			if g%2 == 1 {
				kind = recBlock
			}
			for i := 0; i < total/8; i++ {
				if _, err := wal.Append([]byte{kind, byte(g), byte(i)}); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := wal.LastIndex(); got != total {
		t.Fatalf("last index %d, want %d", got, total)
	}
	if err := wal.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Reopen: the log must replay a dense run with both kinds present.
	reopened, err := OpenWAL(WALConfig{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer reopened.Close()
	want := uint64(1)
	kinds := map[byte]int{}
	if err := reopened.Replay(func(idx uint64, rec []byte) error {
		if idx != want {
			t.Fatalf("replayed index %d, want %d", idx, want)
		}
		want++
		kinds[rec[0]]++
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if want != total+1 {
		t.Fatalf("replayed %d records, want %d", want-1, total)
	}
	if kinds[recDecision] != total/2 || kinds[recBlock] != total/2 {
		t.Fatalf("replayed kinds %v, want %d of each", kinds, total/2)
	}
}

// TestAppendAsyncTokenOrderAndIndex checks the token contract: tokens
// complete in enqueue order and carry the record's assigned index.
func TestAppendAsyncTokenOrderAndIndex(t *testing.T) {
	wal, err := OpenWAL(WALConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer wal.Close()

	toks := make([]*Token, 50)
	for i := range toks {
		tok, err := wal.AppendAsync([]byte{byte(i)})
		if err != nil {
			t.Fatalf("append async %d: %v", i, err)
		}
		toks[i] = tok
	}
	for i, tok := range toks {
		if err := tok.Wait(); err != nil {
			t.Fatalf("token %d: %v", i, err)
		}
		if got := tok.Index(); got != uint64(i+1) {
			t.Fatalf("token %d carries index %d, want %d", i, got, i+1)
		}
	}
	// FIFO: the last token's completion implies all earlier ones.
	for i, tok := range toks {
		if !tok.Done() {
			t.Fatalf("token %d not done after later tokens completed", i)
		}
	}
}

// TestStaleLazyTimerForcesNoWave: the lazy flush timer belongs to the
// pending group that armed it. Once a waited-on record's wave has taken the
// lazy record the timer was armed for, its fire must not force a wave for a
// lazy record enqueued since — that one waits for its own timer,
// lazyFlushDelay after its enqueue, instead of costing an fsync nothing
// waits for. Settle watches the young record without starting its wave.
func TestStaleLazyTimerForcesNoWave(t *testing.T) {
	wal, err := OpenWAL(WALConfig{Dir: t.TempDir(), NoSync: true})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer wal.Close()

	tested := 0
	for round := 0; round < 5; round++ {
		armed := time.Now()
		if _, err := wal.AppendAsync([]byte("old lazy")); err != nil {
			t.Fatalf("lazy enqueue: %v", err)
		}
		if _, err := wal.Append([]byte("waited")); err != nil { // its Wait starts a wave that takes the old lazy record
			t.Fatalf("append: %v", err)
		}
		time.Sleep(time.Until(armed.Add(lazyFlushDelay / 2)))
		enqueued := time.Now()
		tok, err := wal.AppendAsync([]byte("young lazy"))
		if err != nil {
			t.Fatalf("lazy enqueue: %v", err)
		}
		if err := tok.Settle(); err != nil {
			t.Fatalf("young lazy record: %v", err)
		}
		if enqueued.Sub(armed) >= lazyFlushDelay {
			continue // the old timer had fired already: nothing to observe this round
		}
		tested++
		if age := time.Since(enqueued); age < lazyFlushDelay {
			t.Fatalf("round %d: a lazy record became durable %v after its enqueue, before its own %v timer: the timer armed for the previous wave forced a wave",
				round, age, lazyFlushDelay)
		}
	}
	if tested == 0 {
		t.Fatal("every round enqueued the young record after the old timer had fired")
	}
}

// copyTree snapshots a directory tree (the on-disk state a crash at this
// instant would leave behind).
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.OpenFile(target, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
		if err != nil {
			return err
		}
		defer out.Close()
		_, err = io.Copy(out, in)
		return err
	})
	if err != nil {
		t.Fatalf("copying %s: %v", src, err)
	}
}

// TestDecisionEnqueuedButUnsyncedIsLostOnCrash is the write-ahead crash
// window at the storage layer: a decision enqueued on the commit log
// whose fsync wave has not run is NOT on disk — a crash in that
// window loses the record (and the block gated on its token was never
// shipped), while after the wave completes the record survives.
func TestDecisionEnqueuedButUnsyncedIsLostOnCrash(t *testing.T) {
	dir := t.TempDir()
	release := make(chan struct{})
	s, err := Open(dir, Options{SyncHook: func() { <-release }})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	s.Recovered()

	tok := s.AppendDecisionAsync(0, [][]byte{[]byte("op-a"), []byte("op-b")})
	// The wave is stalled before anything is written: give the commit loop
	// a moment, then check the token is still pending.
	time.Sleep(20 * time.Millisecond)
	if tok.Done() {
		t.Fatal("token completed while the commit wave was stalled")
	}

	// Crash snapshot: the on-disk state right now has no trace of the
	// enqueued decision.
	crashDir := t.TempDir()
	copyTree(t, dir, crashDir)
	crashed, err := Open(crashDir, Options{})
	if err != nil {
		t.Fatalf("open crash snapshot: %v", err)
	}
	if rec := crashed.Recovered(); len(rec.Decisions) != 0 {
		t.Fatalf("crash snapshot recovered %d decisions, want 0 (enqueued-but-unsynced must be lost)", len(rec.Decisions))
	}
	crashed.Close()

	// Release the wave: the token completes and the record is durable.
	close(release)
	if err := tok.Wait(); err != nil {
		t.Fatalf("token after release: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	reopened, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer reopened.Close()
	rec := reopened.Recovered()
	if len(rec.Decisions) != 1 || rec.Decisions[0].Seq != 0 {
		t.Fatalf("reopen recovered %+v, want the fsynced decision 0", rec.Decisions)
	}
}

// TestDecisionDurableBlockMissingIsReplayed is the other half of the
// crash window: killed after the decision fsync but before the block
// persist, recovery hands the decision back so the node re-seals and
// re-persists the block (exactly once — the storage holds one decision,
// no block).
func TestDecisionDurableBlockMissingIsReplayed(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	s.Recovered()
	if err := s.AppendDecision(0, [][]byte{[]byte("op")}); err != nil {
		t.Fatalf("append decision: %v", err)
	}
	// Crash before the block persist: close without ever putting the block.
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	reopened, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer reopened.Close()
	rec := reopened.Recovered()
	if len(rec.Decisions) != 1 || rec.Decisions[0].Seq != 0 {
		t.Fatalf("recovered %+v, want decision 0", rec.Decisions)
	}
	if len(rec.Chains) != 0 {
		t.Fatalf("recovered chains %+v, want none (block persist never ran)", rec.Chains)
	}
}

// TestDecisionSealingNoBlockStartsNoWave: a decision record is enqueued
// lazily, and only a block's seal (Flush on its gate, the sealing
// decision's token) starts a wave. Three decisions, of which only the
// third seals a block, take one wave, counted at SyncHook; each decision
// used to start a wave of its own. A round in which the lazy timer could
// have fired before the seal proves nothing and is run again.
func TestDecisionSealingNoBlockStartsNoWave(t *testing.T) {
	var waves atomic.Uint64
	s, err := Open(t.TempDir(), Options{NoSync: true, SyncHook: func() { waves.Add(1) }})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Close()
	s.Recovered()

	seq := int64(0)
	for tested := 0; tested < 3; {
		before := waves.Load()
		start := time.Now()
		var toks []*Token
		for i := 0; i < 3; i++ {
			toks = append(toks, s.AppendDecisionAsync(seq, [][]byte{[]byte("op")}))
			seq++
			time.Sleep(time.Millisecond) // decisions are spaced, as in a cluster
		}
		sealed := time.Since(start)
		toks[2].Flush() // the third decision seals a block
		if err := toks[2].Settle(); err != nil {
			t.Fatalf("sealing decision: %v", err)
		}
		if sealed >= lazyFlushDelay {
			continue // the lazy timer may have started a wave: nothing to observe
		}
		tested++
		if got := waves.Load() - before; got != 1 {
			t.Fatalf("three decisions, one sealing a block, took %d waves, want 1", got)
		}
		for i, tok := range toks[:2] {
			if !tok.Done() {
				t.Fatalf("decision %d not durable after the sealing decision's wave", i)
			}
		}
	}
}

// TestWaitStartsWaveWithoutTimer: Wait on a lazily enqueued record that is
// not yet durable starts its wave itself, so a waiter pays one fsync, not
// lazyFlushDelay. The lazy timer is stopped before the Wait: without the
// start, the Wait would never return.
func TestWaitStartsWaveWithoutTimer(t *testing.T) {
	s, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Close()
	s.Recovered()

	for seq := int64(0); seq < 3; seq++ {
		tok := s.AppendDecisionAsync(seq, [][]byte{[]byte("op")})
		s.wal.lazyTimer.Stop()
		done := make(chan error, 1)
		go func() { done <- tok.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("decision %d: %v", seq, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("Wait on decision %d did not start its wave", seq)
		}
	}
}

// TestAppendPathAllocationBudget: records that share a wave share its
// completion, so N records in one wave allocate what one record does plus
// O(1): the wave's token and channel, not a token, a request and a commit
// closure per record. The records are preencoded, so the count is the
// commit log's own (a pooled encode buffer is not reused under -race).
func TestAppendPathAllocationBudget(t *testing.T) {
	wal, err := OpenWAL(WALConfig{Dir: t.TempDir(), NoSync: true})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer wal.Close()

	rec := append([]byte{recDecision}, make([]byte, 200)...)
	wave := func(records int) func() {
		return func() {
			var tok *Token
			for i := 0; i < records; i++ {
				if tok, err = wal.AppendAsync(rec); err != nil {
					t.Fatalf("append: %v", err)
				}
			}
			if err := tok.Wait(); err != nil {
				t.Fatalf("wave: %v", err)
			}
		}
	}
	const n = 64
	wave(n)() // grow the pending slices and the commit buffer
	one := testing.AllocsPerRun(200, wave(1))
	many := testing.AllocsPerRun(200, wave(n))
	if many > one+2 {
		t.Fatalf("a wave of %d records allocates %.1f, one record %.1f: %.2f per extra record, want O(1) per wave",
			n, many, one, (many-one)/(n-1))
	}
}

// TestEveryRecordCommitsUnderConcurrentFlushes: whatever mix of Wait,
// Flush and Settle concurrent appenders use, every record becomes durable,
// so no wake-up is lost between a group's flush and its wave. Appenders
// that only Settle rely on the others' waves and on the lazy timer.
func TestEveryRecordCommitsUnderConcurrentFlushes(t *testing.T) {
	wal, err := OpenWAL(WALConfig{Dir: t.TempDir(), NoSync: true})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer wal.Close()

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tok, err := wal.AppendAsync([]byte{byte(g), byte(i)})
				if err == nil {
					switch (g + i) % 3 {
					case 0:
						err = tok.Wait()
					case 1:
						tok.Flush()
						err = tok.Settle()
					default:
						err = tok.Settle()
					}
				}
				if err != nil {
					t.Errorf("appender %d record %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("a record never became durable: a wave's wake-up was lost")
	}
}
