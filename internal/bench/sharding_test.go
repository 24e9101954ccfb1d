package bench

import (
	"os"
	"testing"
)

// shardScalingFloor is the checked-in floor for 2-shard over 1-shard
// aggregate durable throughput on the tracked cell. The cell's round
// latency bounds one group at BatchSize per round, so two groups should
// approach 2x; measured scaling sits around 1.8x on an uncontended
// single-core host, and 1.30 leaves headroom for shared-runner noise
// while still catching a routing layer that serializes the groups (which
// would measure ~1.0x) or per-shard storage that contends (below 1.2x).
const shardScalingFloor = 1.30

// shardContendedSanityFloor applies when the gate runs contended (plain
// `go test ./...` alongside every other package): CPU thrash can eat most
// of the overlap, but two groups falling meaningfully BEHIND one group
// always indicates a real serialization bug.
const shardContendedSanityFloor = 0.80

// TestShardScalingFloor is the scale-out smoke gate (wired into CI as a
// dedicated, uncontended step with BENCH_FLOOR_ENFORCE=1): it measures
// the tracked 1-shard vs 2-shard cell and fails when sharded aggregate
// throughput regresses below the checked-in floor. Best-of-3, for the
// same reason as TestDurableFractionFloor: interference can only lower
// the measured scaling, never raise it.
func TestShardScalingFloor(t *testing.T) {
	single, sharded, err := BestShardingComparison(TrackedShardingCell(), t.TempDir(), 3)
	if err != nil {
		t.Fatalf("BestShardingComparison: %v", err)
	}
	if single.TxPerSec <= 0 || sharded.TxPerSec <= 0 {
		t.Fatalf("no throughput: single %+v sharded %+v", single, sharded)
	}
	floor := shardScalingFloor
	if os.Getenv("BENCH_FLOOR_ENFORCE") != "1" {
		floor = shardContendedSanityFloor
	}
	scaling := sharded.TxPerSec / single.TxPerSec
	t.Logf("shard scaling: %.2fx (single %.0f tx/s, sharded %.0f tx/s per-shard %v, floor %.2f)",
		scaling, single.TxPerSec, sharded.TxPerSec, sharded.PerShardTxPerSec, floor)
	if scaling < floor {
		t.Fatalf("shard scaling %.2fx below floor %.2f: sharded ordering is not scaling out", scaling, floor)
	}
}

// TestShardingComparisonTrajectory measures the tracked cell and, under
// BENCH_WRITE=1, records the result in BENCH_sharding.json at the repo
// root, so the scale-out factor is tracked across PRs alongside the
// durability trajectory.
func TestShardingComparisonTrajectory(t *testing.T) {
	cell := TrackedShardingCell()
	single, sharded, err := BestShardingComparison(cell, t.TempDir(), 3)
	if err != nil {
		t.Fatalf("BestShardingComparison: %v", err)
	}
	if single.TxPerSec <= 0 || sharded.TxPerSec <= 0 {
		t.Fatalf("no throughput: single %+v sharded %+v", single, sharded)
	}
	rep := NewShardingReport(cell, single, sharded)
	if err := WriteShardingReport(trackedPath(t, "BENCH_sharding.json"), rep); err != nil {
		t.Fatalf("writing report: %v", err)
	}
	t.Logf("sharding: %.0f tx/s on 1 group, %.0f tx/s on 2 groups (%.2fx)",
		single.TxPerSec, sharded.TxPerSec, rep.Scaling)
}

// TestShardBenchRequiresDataDir pins the cell's contract: it measures
// durable throughput, so an in-memory run must be refused rather than
// silently measuring something else.
func TestShardBenchRequiresDataDir(t *testing.T) {
	if _, err := RunShardBenchCell(ShardBenchCell{}, ""); err == nil {
		t.Fatal("RunShardBenchCell accepted an empty data dir")
	}
}

// TestShardBenchPerShardBreakdown pins the row's accounting: per-shard
// rates must sum to the aggregate and every shard of a 2-shard run must
// carry traffic (a zero shard means routing sent everything one way).
func TestShardBenchPerShardBreakdown(t *testing.T) {
	cell := TrackedShardingCell()
	cell.Shards = 2
	cell.Warmup = 200e6  // 200ms
	cell.Measure = 500e6 // 500ms
	row, err := RunShardBenchCell(cell, t.TempDir())
	if err != nil {
		t.Fatalf("RunShardBenchCell: %v", err)
	}
	if len(row.PerShardTxPerSec) != 2 {
		t.Fatalf("per-shard breakdown has %d entries, want 2", len(row.PerShardTxPerSec))
	}
	var sum float64
	for shard, rate := range row.PerShardTxPerSec {
		if rate <= 0 {
			t.Errorf("shard %d carried no traffic", shard)
		}
		sum += rate
	}
	if diff := sum - row.TxPerSec; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("per-shard rates sum to %.2f, aggregate says %.2f", sum, row.TxPerSec)
	}
}
