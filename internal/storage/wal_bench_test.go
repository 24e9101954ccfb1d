package storage

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/cryptoutil"
	"repro/internal/fabric"
)

// Microbenchmarks for the durable hot path. Run with -benchmem (the
// benchmarks also force ReportAllocs) so the per-append allocation count
// is tracked: the commit buffer and encode-buffer pooling only stay won
// if these numbers don't regress.

// runWALAppendBench drives b.N appends through `appenders` concurrent
// goroutines, so the writer coalesces groups of roughly that size.
func runWALAppendBench(b *testing.B, appenders, recordSize int, noSync bool) {
	b.Helper()
	wal, err := OpenWAL(WALConfig{Dir: b.TempDir(), NoSync: noSync})
	if err != nil {
		b.Fatalf("OpenWAL: %v", err)
	}
	rec := make([]byte, recordSize)
	b.ReportAllocs()
	b.SetBytes(int64(recordSize))
	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N / appenders
	extra := b.N % appenders
	for g := 0; g < appenders; g++ {
		n := per
		if g < extra {
			n++
		}
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if _, err := wal.Append(rec); err != nil {
					b.Errorf("append: %v", err)
					return
				}
			}
		}(n)
	}
	wg.Wait()
	b.StopTimer()
	if err := wal.Close(); err != nil {
		b.Fatalf("close: %v", err)
	}
}

// BenchmarkWALAppendNoSync isolates the write path (frame assembly, index
// bookkeeping, buffered write) from the fsync, across group sizes.
func BenchmarkWALAppendNoSync(b *testing.B) {
	for _, g := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("appenders=%d", g), func(b *testing.B) {
			runWALAppendBench(b, g, 512, true)
		})
	}
}

// BenchmarkWALAppendFsync measures the full durable append across group
// sizes: larger groups amortize each fsync over more records.
func BenchmarkWALAppendFsync(b *testing.B) {
	for _, g := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("appenders=%d", g), func(b *testing.B) {
			runWALAppendBench(b, g, 512, false)
		})
	}
}

// BenchmarkUnifiedLogAppend drives mixed record kinds through the ONE
// log a NodeStorage runs on (decision and block records multiplexed into
// shared segments), with appenders split across both
// kinds, measuring the single-fsync wave the unified log is for.
func BenchmarkUnifiedLogAppend(b *testing.B) {
	for _, g := range []int{2, 8, 64} {
		b.Run(fmt.Sprintf("appenders=%d", g), func(b *testing.B) {
			wal, err := OpenWAL(WALConfig{Dir: b.TempDir()})
			if err != nil {
				b.Fatalf("OpenWAL: %v", err)
			}
			decRec := append([]byte{recDecision}, make([]byte, 511)...)
			blkRec := append([]byte{recBlock}, make([]byte, 511)...)
			b.ReportAllocs()
			b.SetBytes(512)
			b.ResetTimer()
			var wg sync.WaitGroup
			for g2 := 0; g2 < g; g2++ {
				n := b.N / g
				if g2 < b.N%g {
					n++
				}
				rec := decRec
				if g2%2 == 1 {
					rec = blkRec
				}
				wg.Add(1)
				go func(rec []byte, n int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						if _, err := wal.Append(rec); err != nil {
							b.Errorf("append: %v", err)
							return
						}
					}
				}(rec, n)
			}
			wg.Wait()
			b.StopTimer()
			if err := wal.Close(); err != nil {
				b.Fatalf("close: %v", err)
			}
		})
	}
}

// BenchmarkBlockPutAsync measures the block-record enqueue path of the
// unified log end to end (encode into a pooled buffer, height/index
// bookkeeping, pending-group handoff) — the per-put allocations this path used
// to pay for Block.Marshal are what MarshalInto removed; ReportAllocs
// keeps that won.
func BenchmarkBlockPutAsync(b *testing.B) {
	store, err := OpenBlockStore(WALConfig{Dir: b.TempDir(), SegmentBytes: 64 << 20})
	if err != nil {
		b.Fatalf("OpenBlockStore: %v", err)
	}
	store.Chains()
	// A realistic small block: 10 envelopes of 64 bytes.
	envs := make([][]byte, 10)
	for i := range envs {
		envs[i] = make([]byte, 64)
	}
	blocks := make([]*fabric.Block, b.N)
	var prev cryptoutil.Digest
	for i := range blocks {
		blocks[i] = fabric.NewBlock(uint64(i), prev, envs)
		prev = blocks[i].Header.Hash()
	}
	b.ReportAllocs()
	b.ResetTimer()
	var last *Token
	for i := 0; i < b.N; i++ {
		tok, err := store.PutAsync("bench", blocks[i])
		if err != nil {
			b.Fatalf("put async: %v", err)
		}
		last = tok
	}
	if last != nil {
		if err := last.Wait(); err != nil {
			b.Fatalf("final token: %v", err)
		}
	}
	b.StopTimer()
	if err := store.Close(); err != nil {
		b.Fatalf("close: %v", err)
	}
}

// BenchmarkWALAppendAsync measures the enqueue path the consensus loop
// pays under asynchronous decision logging: the token handoff must stay
// cheap because it runs on the event loop.
func BenchmarkWALAppendAsync(b *testing.B) {
	wal, err := OpenWAL(WALConfig{Dir: b.TempDir()})
	if err != nil {
		b.Fatalf("OpenWAL: %v", err)
	}
	rec := make([]byte, 512)
	b.ReportAllocs()
	b.ResetTimer()
	var last *Token
	for i := 0; i < b.N; i++ {
		tok, err := wal.AppendAsync(rec)
		if err != nil {
			b.Fatalf("append async: %v", err)
		}
		last = tok
	}
	if err := last.Wait(); err != nil {
		b.Fatalf("final token: %v", err)
	}
	b.StopTimer()
	if err := wal.Close(); err != nil {
		b.Fatalf("close: %v", err)
	}
}
