// Command benchmark is the repository's yardstick: five workloads over the
// ordering service's client surface (Broadcast in, Deliver out) on a
// modelled network and a modelled disk, each run in its own process, with
// a correctness check and a traced run that attributes cost to layers.
//
// One workload, the form the driver uses (see BENCHMARK.json):
//
//	benchmark -workload lan_open_200b -seed 1 -seconds 12 -trace 0
//
// prints one JSON object as the last line of standard output. Without
// -workload every workload runs in a child process of its own:
//
//	benchmark                      # every workload once, JSON report
//	benchmark -trace 1             # plus the traced run per workload
//	benchmark -repeat 5 -check     # two sets of 5 runs each, compared
//
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync"
	"syscall"
)

// defaultSeconds is the measured window when -seconds is not given; it
// matches run_seconds in BENCHMARK.json. tracedSeconds is the shorter
// window of the orchestrator's traced runs.
const (
	defaultSeconds = 12
	tracedSeconds  = 8
)

func main() { os.Exit(mainExit()) }

func mainExit() int {
	name := flag.String("workload", "", "run this one workload in this process (default: all, one child process each)")
	seed := flag.Int64("seed", 1, "workload seed: payload bytes, WAN jitter, replay start")
	seconds := flag.Int("seconds", 0, "measured window in seconds (default 12; 8 for the orchestrator's traced runs)")
	trace := flag.Int("trace", 0, "1: traced run (per-layer metrics, spans to benchmark/out); 0: end-to-end metrics")
	repeat := flag.Int("repeat", 1, "orchestrator: runs per workload, each with another seed; medians are reported")
	check := flag.Bool("check", false, "orchestrator: run the set twice and fail when the two disagree beyond the bounds")
	out := flag.String("out", "", "orchestrator: write the JSON report here instead of standard output")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		return 2
	}
	defer cleanup()

	if *name == "" {
		return orchestrate(orchestrateOpts{
			seed: *seed, seconds: *seconds, trace: *trace == 1, repeat: *repeat, check: *check, out: *out,
		})
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	if *seconds == 0 {
		*seconds = defaultSeconds
	}
	cleanupOnSignal()
	res, det, err := runWorkload(runOpts{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1})
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
		return 1
	}
	printRun(os.Stderr, res, det)
	// The detail line first, the result last: the driver reads the last line.
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(det); err != nil {
		return 1
	}
	if err := enc.Encode(res); err != nil {
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// Temp directories are removed when the process returns normally, and by
// the handler below on SIGINT/SIGTERM. A crash in a child leaves its
// directory inside the orchestrator's, which the orchestrator removes.
var (
	cleanupMu   sync.Mutex
	cleanupDirs []string
)

func removeOnExit(dir string) {
	cleanupMu.Lock()
	cleanupDirs = append(cleanupDirs, dir)
	cleanupMu.Unlock()
}

func cleanup() {
	cleanupMu.Lock()
	defer cleanupMu.Unlock()
	for _, dir := range cleanupDirs {
		os.RemoveAll(dir)
	}
	cleanupDirs = nil
}

func cleanupOnSignal() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup()
		os.Exit(130)
	}()
}
