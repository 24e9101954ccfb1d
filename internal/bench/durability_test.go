package bench

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/storage/retention"
)

// TestWALGroupCommitRate is the acceptance floor for the durable append
// path: concurrent fsynced appends must sustain at least 1k/s (group
// commit amortizes each fsync across every append queued behind it, so
// even slow disks clear this by a wide margin).
func TestWALGroupCommitRate(t *testing.T) {
	row, err := RunWALBench(WALBenchConfig{
		Dir:                t.TempDir(),
		Appenders:          32,
		AppendsPerAppender: 64,
		RecordSize:         512,
	})
	if err != nil {
		t.Fatalf("RunWALBench: %v", err)
	}
	t.Logf("group-commit WAL: %.0f appends/s (%d appenders, %dB records)",
		row.AppendsPerSec, row.Appenders, row.RecordSize)
	if row.AppendsPerSec < 1000 {
		t.Fatalf("group-commit WAL sustained %.0f appends/s, want >= 1000", row.AppendsPerSec)
	}
}

func TestRunDurableFigure7CellSmoke(t *testing.T) {
	cell := Fig7Cell{
		Nodes:     4,
		BlockSize: 10,
		EnvSize:   40,
		Receivers: 1,
		Clients:   4,
		Window:    200,
		Warmup:    300 * time.Millisecond,
		Measure:   700 * time.Millisecond,
		DataDir:   t.TempDir(),
	}
	row, err := RunFigure7Cell(cell)
	if err != nil {
		t.Fatalf("RunFigure7Cell (durable): %v", err)
	}
	if row.TxPerSec <= 0 || row.BlockPerSec <= 0 {
		t.Fatalf("no throughput with durability on: %+v", row)
	}
	t.Logf("durable cell: %.0f tx/s, %.0f blocks/s", row.TxPerSec, row.BlockPerSec)
}

// durabilityCell is the tracked durability cell: the same Figure-7 style
// workload BENCH_durability.json has carried since PR 1, plus the shared
// commit log's production tuning (a 1 ms fsync coalescing window —
// with four co-located nodes the waves would otherwise contend the one
// filesystem journal).
func durabilityCell() Fig7Cell {
	return Fig7Cell{
		Nodes:          4,
		BlockSize:      10,
		EnvSize:        40,
		Receivers:      1,
		Clients:        4,
		Window:         200,
		Warmup:         300 * time.Millisecond,
		Measure:        700 * time.Millisecond,
		CommitMaxDelay: time.Millisecond,
	}
}

// durableFractionFloor is the checked-in floor for the durable-throughput
// gate: the measured DurableFraction on the tracked cell may not fall
// below it. History: serialized fsyncs measured 0.376; the shared commit
// queue + async decision logging lifted the band to ~0.55-0.62 (floor
// 0.45); the unified commit log (one fsync per wave instead of two) plus
// decision-gated early dissemination (sends no longer wait for the block
// put) lifted it again, to ~0.65-0.75 on the reference 1-core cell. The
// floor sits below that band to absorb CI noise while still catching a
// regression toward either the two-log or the wait-for-put behavior.
const durableFractionFloor = 0.60

// contendedSanityFloor is the fraction floor applied when the gate runs
// inside a full `go test ./...` sweep: other packages' tests share the
// machine and starve the measurement, so only a catastrophic regression
// (a return to fully serialized fsyncs, measured at 0.376) is
// detectable. CI's dedicated bench-smoke step runs the test alone with
// BENCH_FLOOR_ENFORCE=1 and applies the real floor.
const contendedSanityFloor = 0.30

// TestDurableFractionFloor is the bench smoke gate (wired into CI as a
// dedicated, uncontended step with BENCH_FLOOR_ENFORCE=1): it measures
// the tracked cell and fails when the durable hot path regresses below
// the checked-in floor. Best-of-3: shared CI boxes routinely skew a
// single pair by a noisy-neighbor burst on one side (interference can
// only lower the fraction, never raise it), while a real regression
// drags all three rounds down.
func TestDurableFractionFloor(t *testing.T) {
	memory, durable, err := BestDurabilityComparison(durabilityCell(), t.TempDir(), 3)
	if err != nil {
		t.Fatalf("BestDurabilityComparison: %v", err)
	}
	if memory.TxPerSec <= 0 || durable.TxPerSec <= 0 {
		t.Fatalf("no throughput: memory %+v durable %+v", memory, durable)
	}
	floor := durableFractionFloor
	if os.Getenv("BENCH_FLOOR_ENFORCE") != "1" {
		floor = contendedSanityFloor
	}
	frac := durable.TxPerSec / memory.TxPerSec
	t.Logf("durable fraction: %.3f (memory %.0f tx/s, durable %.0f tx/s, floor %.2f)",
		frac, memory.TxPerSec, durable.TxPerSec, floor)
	if frac < floor {
		t.Fatalf("durable fraction %.3f below floor %.2f: the durable hot path regressed", frac, floor)
	}
}

// trackedPath is where a trajectory test writes its BENCH_*.json report:
// the tracked file at the repo root only when BENCH_WRITE=1 asks for a
// regeneration, a scratch file otherwise — a plain `go test ./...` runs
// the cell, checks it and serializes the report without touching the tree.
func trackedPath(t *testing.T, name string) string {
	if os.Getenv("BENCH_WRITE") == "1" {
		return filepath.Join("..", "..", name)
	}
	return filepath.Join(t.TempDir(), name)
}

// TestDurabilityComparisonTrajectory runs one small Figure-7 cell twice
// (in-memory and durable) and, under BENCH_WRITE=1, records the result in
// BENCH_durability.json at the repo root, so the cost of the fsync
// discipline is tracked across PRs.
func TestDurabilityComparisonTrajectory(t *testing.T) {
	cell := durabilityCell()
	memory, durable, err := BestDurabilityComparison(cell, t.TempDir(), 3)
	if err != nil {
		t.Fatalf("BestDurabilityComparison: %v", err)
	}
	if memory.TxPerSec <= 0 || durable.TxPerSec <= 0 {
		t.Fatalf("no throughput: memory %+v durable %+v", memory, durable)
	}
	rep := NewDurabilityReport(cell, memory, durable)
	retRow, err := RunRetentionBench(RetentionBenchConfig{
		Dir:    t.TempDir(),
		Blocks: 600,
		Policy: retention.Policy{RetainBytes: 64 << 10},
	})
	if err != nil {
		t.Fatalf("RunRetentionBench: %v", err)
	}
	rep.Retention = &retRow
	if err := WriteDurabilityReport(trackedPath(t, "BENCH_durability.json"), rep); err != nil {
		t.Fatalf("writing report: %v", err)
	}
	t.Logf("durability: %.0f tx/s in-memory, %.0f tx/s durable (%.0f%%); retention: %d B before / %d B after compaction (peak %d B)",
		memory.TxPerSec, durable.TxPerSec, 100*rep.DurableFraction,
		retRow.BytesBeforeCompaction, retRow.BytesAfterCompaction, retRow.PeakBytes)
}

// TestDiskGrowthBoundedUnderRetention is the disk-growth regression
// check (wired into CI's race-detector job): a sustained append workload
// with a retention cap must keep the block store's on-disk size under
// the cap plus bounded slack (whole-segment pruning granularity plus the
// block in flight), and old segments must actually be deleted.
func TestDiskGrowthBoundedUnderRetention(t *testing.T) {
	const (
		capBytes     = 64 << 10
		segmentBytes = 8 << 10
	)
	row, err := RunRetentionBench(RetentionBenchConfig{
		Dir:          t.TempDir(),
		Blocks:       2000,
		SegmentBytes: segmentBytes,
		Policy:       retention.Policy{RetainBytes: capBytes},
	})
	if err != nil {
		t.Fatalf("RunRetentionBench: %v", err)
	}
	t.Logf("retention bench: peak %d B, before %d B, after %d B, floor %d, %d compactions",
		row.PeakBytes, row.BytesBeforeCompaction, row.BytesAfterCompaction, row.Floor, row.Compactions)
	if row.Compactions == 0 || row.Floor == 0 {
		t.Fatalf("retention never compacted: %+v", row)
	}
	// Whole segments are the pruning granularity and one oversized
	// append can land before the next compaction runs.
	slack := int64(2*segmentBytes + 4096)
	if row.PeakBytes > capBytes+slack {
		t.Fatalf("block store peaked at %d B, cap %d B (+%d B slack)", row.PeakBytes, capBytes, slack)
	}
	if row.BytesAfterCompaction*2 >= row.AppendedBytes {
		t.Fatalf("compaction deleted nothing: %d B on disk after appending ~%d B",
			row.BytesAfterCompaction, row.AppendedBytes)
	}
	// The before/after pair must bracket a real compaction (sampled
	// immediately around the CompactTo call): identical values would mean
	// the measurement regressed to sampling outside the compaction and
	// this gate is vacuous.
	if row.BytesBeforeCompaction <= row.BytesAfterCompaction {
		t.Fatalf("compaction sampling vacuous: before %d B <= after %d B",
			row.BytesBeforeCompaction, row.BytesAfterCompaction)
	}
}
