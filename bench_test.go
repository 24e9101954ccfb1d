// Package repro's top-level benchmarks regenerate every figure of the
// paper's evaluation (Section 6) as testing.B benchmarks. Each benchmark
// prints the figure's rows/series and reports throughput or latency via
// b.ReportMetric, so `go test -bench=.` reproduces the full evaluation.
//
// The sweeps here use reduced per-cell durations so the whole suite
// finishes in minutes on a laptop; `go run ./cmd/figures -figure N` runs
// the same code with the paper's full grids and longer windows. Set
// REPRO_FULL=1 to run the complete grids here too. These reproduce the
// paper's figures; performance across changes is judged by benchmark/.
package repro

import (
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/bench"
)

// fullSweep selects the paper's complete parameter grids.
func fullSweep() bool {
	return os.Getenv("REPRO_FULL") == "1"
}

// BenchmarkFigure6SignatureGeneration reproduces Figure 6: Ed25519 signature
// generation throughput for Fabric block headers (blocks of 10 envelopes)
// against the number of signing worker threads.
func BenchmarkFigure6SignatureGeneration(b *testing.B) {
	workers := []int{1, 2, 4, 8, 16}
	if fullSweep() {
		workers = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	}
	duration := 500 * time.Millisecond
	if fullSweep() {
		duration = 2 * time.Second
	}
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunFigure6(workers, 10, duration)
		if err != nil {
			b.Fatalf("figure 6: %v", err)
		}
		peak := 0.0
		for _, row := range rows {
			b.Logf("figure6 workers=%-2d %8.0f signatures/sec", row.Workers, row.SigsPerSec)
			if row.SigsPerSec > peak {
				peak = row.SigsPerSec
			}
		}
		b.ReportMetric(peak, "peak-sigs/sec")
	}
}

// figure7Panel runs one panel of Figure 7 (a cluster size + block size
// combination) and logs each measured cell.
func figure7Panel(b *testing.B, nodes, blockSize int) {
	b.Helper()
	envSizes := []int{40, 1024}
	receivers := []int{1, 4, 16}
	measure := 1200 * time.Millisecond
	warmup := 600 * time.Millisecond
	clients := 8
	if fullSweep() {
		envSizes = bench.PaperEnvelopeSizes
		receivers = []int{1, 2, 4, 8, 16, 32}
		measure = 3 * time.Second
		warmup = time.Second
		clients = 16
	}
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunFigure7Panel(nodes, blockSize, envSizes, receivers, bench.Fig7Cell{
			Clients: clients,
			Warmup:  warmup,
			Measure: measure,
		})
		if err != nil {
			b.Fatalf("figure 7 panel %d/%d: %v", nodes, blockSize, err)
		}
		var peak float64
		for _, row := range rows {
			b.Logf("figure7 nodes=%-2d block=%-3d env=%-4dB recv=%-2d %9.0f tx/sec %7.0f blocks/sec",
				row.Nodes, row.BlockSize, row.EnvSize, row.Receivers, row.TxPerSec, row.BlockPerSec)
			if row.TxPerSec > peak {
				peak = row.TxPerSec
			}
		}
		b.ReportMetric(peak, "peak-tx/sec")
	}
}

// BenchmarkFigure7 reproduces the six panels of Figure 7: LAN throughput
// for 4/7/10 orderers with 10 or 100 envelopes per block, swept over
// envelope sizes and receiver counts.
func BenchmarkFigure7(b *testing.B) {
	for _, panel := range []struct{ nodes, block int }{
		{4, 10}, {4, 100}, {7, 10}, {7, 100}, {10, 10}, {10, 100},
	} {
		name := fmt.Sprintf("%dnodes_%denv", panel.nodes, panel.block)
		b.Run(name, func(b *testing.B) {
			figure7Panel(b, panel.nodes, panel.block)
		})
	}
}

// geoFigure runs one geo-latency figure (block size 10 = Figure 8,
// 100 = Figure 9) across both protocols.
func geoFigure(b *testing.B, blockSize int) {
	b.Helper()
	envSizes := []int{40, 4096}
	measure := 2 * time.Second
	warmup := 1500 * time.Millisecond
	if fullSweep() {
		envSizes = bench.PaperEnvelopeSizes
		measure = 6 * time.Second
		warmup = 2 * time.Second
	}
	for i := 0; i < b.N; i++ {
		var wheatMedianSum, bftMedianSum float64
		var count int
		for _, size := range envSizes {
			for _, protocol := range []bench.GeoProtocol{bench.ProtocolBFTSmart, bench.ProtocolWheat} {
				rows, err := bench.RunGeoCell(bench.GeoCell{
					Protocol:          protocol,
					BlockSize:         blockSize,
					EnvSize:           size,
					WindowPerFrontend: 96,
					Warmup:            warmup,
					Measure:           measure,
				})
				if err != nil {
					b.Fatalf("geo cell: %v", err)
				}
				for _, row := range rows {
					b.Logf("figure%d frontend=%-9s proto=%-9s env=%-4dB median=%6.0fms p90=%6.0fms %6.0f tx/sec",
						figureNumber(blockSize), row.Frontend, row.Protocol, row.EnvSize,
						row.MedianMs, row.P90Ms, row.TxPerSec)
					if protocol == bench.ProtocolWheat {
						wheatMedianSum += row.MedianMs
					} else {
						bftMedianSum += row.MedianMs
						count++
					}
				}
			}
		}
		if count > 0 {
			b.ReportMetric(bftMedianSum/float64(count), "bftsmart-median-ms")
			b.ReportMetric(wheatMedianSum/float64(count), "wheat-median-ms")
		}
	}
}

func figureNumber(blockSize int) int {
	if blockSize >= 100 {
		return 9
	}
	return 8
}

// BenchmarkFigure8GeoLatency reproduces Figure 8: geo-distributed latency
// with blocks of 10 envelopes, BFT-SMaRt vs WHEAT, at four frontends.
func BenchmarkFigure8GeoLatency(b *testing.B) {
	geoFigure(b, 10)
}

// BenchmarkFigure9GeoLatency reproduces Figure 9: the same comparison with
// blocks of 100 envelopes.
func BenchmarkFigure9GeoLatency(b *testing.B) {
	geoFigure(b, 100)
}

// BenchmarkEquation1Bound verifies the paper's Equation (1) on live
// measurements: ordering-service throughput never exceeds
// min(signature rate x block size, raw ordering rate).
func BenchmarkEquation1Bound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunEquation1(bench.Fig7Cell{
			Nodes:     4,
			BlockSize: 10,
			EnvSize:   40,
			Receivers: 1,
			Clients:   8,
			Warmup:    500 * time.Millisecond,
			Measure:   1500 * time.Millisecond,
		})
		if err != nil {
			b.Fatalf("equation 1: %v", err)
		}
		b.Logf("equation1 measured=%.0f sign-bound=%.0f order-bound=%.0f satisfied=%v",
			res.MeasuredTPS, res.SignBoundTPS, res.OrderBoundTPS, res.Satisfied)
		if !res.Satisfied {
			b.Fatalf("Equation (1) violated: TP=%.0f > min(%.0f, %.0f)",
				res.MeasuredTPS, res.SignBoundTPS, res.OrderBoundTPS)
		}
		b.ReportMetric(res.MeasuredTPS, "tx/sec")
	}
}

// BenchmarkSoloOrdererBaseline measures HLF's non-replicated solo orderer
// on the same workload shape as Figure 7's smallest cell, quantifying the
// cost of Byzantine fault tolerance (ablation; not a paper figure).
func BenchmarkSoloOrdererBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tps, err := runSoloBaseline(1500 * time.Millisecond)
		if err != nil {
			b.Fatalf("solo baseline: %v", err)
		}
		b.Logf("solo orderer: %.0f tx/sec (no replication)", tps)
		b.ReportMetric(tps, "tx/sec")
	}
}
