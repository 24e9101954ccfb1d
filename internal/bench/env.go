package bench

import (
	"os"
	"runtime"
)

// EnvInfo records the runtime environment a benchmark artifact was
// produced under. The chaos matrix's BENCH_scenarios.json embeds one: a
// number that moved because CI changed machines must be distinguishable
// from a number that moved because the code changed.
type EnvInfo struct {
	// GoVersion is the toolchain that built the benchmark binary.
	GoVersion string
	// GOOS and GOARCH identify the platform.
	GOOS, GOARCH string
	// NumCPU is the machine's logical CPU count.
	NumCPU int
	// GOMAXPROCS is the scheduler parallelism the run actually used.
	GOMAXPROCS int
	// GOGC is the garbage-collector target percentage ("" when unset).
	GOGC string `json:",omitempty"`
}

// CaptureEnv snapshots the current process environment.
func CaptureEnv() EnvInfo {
	return EnvInfo{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       os.Getenv("GOGC"),
	}
}
