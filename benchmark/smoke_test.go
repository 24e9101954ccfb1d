package main

import (
	"encoding/json"
	"os"
	"regexp"
	"runtime"
	"testing"
	"time"
)

// shortened keeps a workload's wiring and cuts its set-up to test size:
// a brief warm-up and a 400-block chain instead of 4000.
func shortened(w workload) workload {
	if w.Warmup > 0 {
		w.Warmup = 200 * time.Millisecond
	}
	if w.PopulateBlocks > 0 {
		w.PopulateBlocks = 400
	}
	return w
}

// settle waits for goroutines of a torn-down system to exit.
func settle(baseline int) int {
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > baseline && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// One second of every workload: the wiring works, the outputs are
// correct, every end-to-end metric is measured, and tear-down leaves no
// goroutine and no file behind.
func TestWorkloadSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			tmp := t.TempDir()
			t.Setenv("TMPDIR", tmp)
			baseline := runtime.NumGoroutine()

			res, det, err := runWorkload(runOpts{w: shortened(w), seed: 1, seconds: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("attempted %d failed %d correct %v: %v", res.Attempted, res.Failed, res.Correct, det.Violations)
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Fatalf("%d metrics, want the %d end-to-end ones", len(res.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Value <= 0 || m.Unit != d.Unit {
					t.Errorf("%s = %+v (present %v): every end-to-end metric must be measured and non-zero", d.Name, m, ok)
				}
			}
			if det.Samples == 0 {
				t.Error("no latency samples inside the window")
			}

			if n := settle(baseline); n > baseline {
				t.Errorf("%d goroutines before the run, %d after tear-down", baseline, n)
			}
			left, err := os.ReadDir(tmp)
			if err != nil {
				t.Fatal(err)
			}
			if len(left) != 0 {
				t.Errorf("tear-down left %d entries in the temp dir, first %q", len(left), left[0].Name())
			}
		})
	}
}

// A traced second of the TCP workload: every per-layer metric is reported,
// the in-situ ones of the layers on its path are non-zero, the storage ones
// (no storage on this path) read zero, and the spans reach the file.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	w, _ := findWorkload("tcp_open_200b_mem")
	t.Setenv("TMPDIR", t.TempDir())
	res, det, err := runWorkload(runOpts{w: shortened(w), seed: 1, seconds: 1, trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("incorrect: %v", det.Violations)
	}
	if len(res.Metrics) != len(perLayer) {
		t.Fatalf("%d metrics, want the %d per-layer ones", len(res.Metrics), len(perLayer))
	}
	for _, d := range perLayer {
		if _, ok := res.Metrics[d.Name]; !ok {
			t.Errorf("%s missing", d.Name)
		}
	}
	for _, name := range []string{
		"consensus.stage_decide_p50_ms", "consensus.ops_per_batch", "transport.msgs_per_tx",
		"transport.block_bytes_per_tx", "clientapi.broadcast_rpc_p50_us", "core.stage_total_p50_ms",
		"core.envelopes_per_block", "core.first_commit_ms", "loadgen.traced_latency_p50_ms",
		"process.cpu_us_per_tx", "storage.probe_append_sync_p50_us", "consensus.probe_ops_per_s",
		"transport.probe_tcp_rtt_p50_us", "clientapi.probe_deliver_blocks_per_s", "core.probe_solo_tx_s",
		"cryptoutil.sign_us", "fabric.block_unmarshal_ns", "wire.writer_put_ns",
	} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want a measurement", name, res.Metrics[name].Value)
		}
	}
	for _, name := range []string{"storage.stage_fsync_p50_ms", "storage.fsyncs_per_tx", "storage.disk_peak_mb", "consensus.leader_changes"} {
		if res.Metrics[name].Value != 0 {
			t.Errorf("%s = %v on a workload without storage and without faults", name, res.Metrics[name].Value)
		}
	}

	raw, err := os.ReadFile(det.TraceFile)
	if err != nil {
		t.Fatal(err)
	}
	defer os.Remove(det.TraceFile)
	var file struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]int)
	for _, s := range file.Spans {
		byName[s.Name]++
		if s.EndNs < s.StartNs {
			t.Fatalf("span %s of request %d ends before it starts", s.Name, s.ID)
		}
	}
	if byName["loadgen.tx"] == 0 || byName["loadgen.tx"] != byName["clientapi.broadcast_rpc"] ||
		byName["loadgen.tx"] != byName["loadgen.deliver_wait"] {
		t.Fatalf("spans per name %v: every traced request has a root and two children", byName)
	}
}

// BENCHMARK.json, the contract the driver reads, says what the code does.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, default window %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" || len(doc.Command) != 2 || doc.Command[1] != "benchmark/run.sh" {
		t.Errorf("command %v paths %v", doc.Command, doc.Paths)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d is %q in the file, %q in the code (or its why differs)", i, doc.Workloads[i].Name, w.Name)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: name or why (%d chars) outside the limits", w.Name, len(w.Why))
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("file lists %d+%d metrics, code defines %d+%d", len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := make(map[string]bool)
	largest := 0.0
	for i, d := range endToEnd {
		f := doc.EndToEnd[i]
		if f.Name != d.Name || f.Unit != d.Unit || f.Better != d.Better || f.Bound != d.Bound {
			t.Errorf("end-to-end %d: file %+v, code %+v", i, f, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name != "setup_s" && d.Bound > largest {
			largest = d.Bound
		}
	}
	for i, d := range perLayer {
		f := doc.PerLayer[i]
		if f.Name != d.Name || f.Unit != d.Unit || f.Better != d.Better {
			t.Errorf("per-layer %d: file %+v, code %+v", i, f, d)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] || !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %+v: duplicate or outside the naming limits", d)
		}
		seen[d.Name] = true
		if d.Name == "setup_s" && (d.Unit != "s" || d.Better != "lower" || d.Bound <= largest) {
			t.Errorf("setup_s must be in seconds, lower is better, with the largest bound: %+v", d)
		}
	}
}
