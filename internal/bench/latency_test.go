package bench

import (
	"testing"
	"time"
)

// latencyCell is the tracked latency cell: the durability cell's workload
// (4 durable nodes, 10-envelope blocks, 40 B envelopes, 1 ms commit
// coalescing) so BENCH_latency.json and BENCH_durability.json describe
// the same pipeline.
func latencyCell(dataDir string) Fig7Cell {
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
		DataDir:        dataDir,
	}
}

// TestLatencyTrajectory runs the tracked cell with the observability
// layer enabled and, under BENCH_WRITE=1, records the per-stage latency
// breakdown in BENCH_latency.json at the repo root, so each pipeline
// stage's trajectory is tracked across PRs: a group-commit regression
// shows in the fsync stage, a dissemination regression in
// disseminate/deliver, without moving the others.
func TestLatencyTrajectory(t *testing.T) {
	rep, row, err := RunLatencyCell(latencyCell(t.TempDir()))
	if err != nil {
		t.Fatalf("RunLatencyCell: %v", err)
	}
	if row.TxPerSec <= 0 {
		t.Fatalf("no throughput with metrics on: %+v", row)
	}
	byStage := make(map[string]StageLatency, len(rep.Stages))
	for _, s := range rep.Stages {
		byStage[s.Stage] = s
		t.Logf("stage %-12s %7d samples  p50 %8.3f ms  p95 %8.3f ms  p99 %8.3f ms",
			s.Stage, s.Samples, s.P50Ms, s.P95Ms, s.P99Ms)
	}
	// Every stage of a durable, loaded run must have observed spans: a
	// zero-sample stage means the trace broke somewhere in the pipeline.
	for _, stage := range []string{"decide", "fsync", "disseminate", "deliver", "total"} {
		s, ok := byStage[stage]
		if !ok {
			t.Fatalf("stage %q missing from report", stage)
		}
		if s.Samples == 0 {
			t.Errorf("stage %q observed no spans", stage)
		}
		if s.P50Ms < 0 || s.P99Ms < s.P50Ms {
			t.Errorf("stage %q quantiles inconsistent: p50 %.3f ms, p99 %.3f ms", stage, s.P50Ms, s.P99Ms)
		}
	}
	if t.Failed() {
		return
	}
	// The data dir is a per-run temp path; blank it so the tracked
	// artifact only diffs when the measurement changes.
	rep.Cell.DataDir = ""
	if err := WriteLatencyReport(trackedPath(t, "BENCH_latency.json"), rep); err != nil {
		t.Fatalf("writing report: %v", err)
	}
}

// TestMetricsOverheadSmoke runs the same cell with and without the
// registry and fails only on a catastrophic slowdown (> 3x): the real
// overhead guard is the allocation benchmark in internal/obs; this one
// just proves an instrumented cluster still moves traffic.
func TestMetricsOverheadSmoke(t *testing.T) {
	cell := latencyCell("")
	plain, err := RunFigure7Cell(cell)
	if err != nil {
		t.Fatalf("RunFigure7Cell (plain): %v", err)
	}
	_, instrumented, err := RunLatencyCell(cell)
	if err != nil {
		t.Fatalf("RunLatencyCell: %v", err)
	}
	if plain.TxPerSec <= 0 || instrumented.TxPerSec <= 0 {
		t.Fatalf("no throughput: plain %+v instrumented %+v", plain, instrumented)
	}
	t.Logf("metrics overhead: %.0f tx/s plain, %.0f tx/s instrumented",
		plain.TxPerSec, instrumented.TxPerSec)
	if instrumented.TxPerSec*3 < plain.TxPerSec {
		t.Fatalf("instrumented run at %.0f tx/s vs %.0f tx/s plain: metrics are not near-free",
			instrumented.TxPerSec, plain.TxPerSec)
	}
}
