// Geowheat reproduces the heart of the paper's Section 6.3 in miniature:
// it runs the ordering service over a simulated wide-area network (nodes in
// Oregon, Ireland, Sydney, and Sao Paulo) twice - once with classic
// BFT-SMaRt, once with WHEAT (a fifth replica in Virginia, binary vote
// weights; as in BFT-SMaRt, an instance executes once it is decided, so a
// node signs only decided blocks) - and prints the median and 90th-percentile
// envelope latency observed by frontends in Canada, Oregon, Virginia, and
// Sao Paulo.
//
// Expected shape (the paper's Figures 8): WHEAT is markedly faster than
// BFT-SMaRt at every frontend, and the Sao Paulo frontend (near only a
// V_min replica) is slower than the V_max-collocated ones.
package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "geowheat:", err)
		os.Exit(1)
	}
}

func run() error {
	fmt.Println("ordering nodes: Oregon, Ireland, Sydney, Sao Paulo (+Virginia for WHEAT)")
	fmt.Println("frontends:      Canada, Oregon, Virginia, Sao Paulo")
	fmt.Println("workload:       1 KB envelopes, blocks of 10, closed-loop load")
	fmt.Println()

	table := bench.NewTable("frontend", "protocol", "median_ms", "p90_ms", "tx/sec")
	results := make(map[string]map[bench.GeoProtocol]float64)
	for _, protocol := range []bench.GeoProtocol{bench.ProtocolBFTSmart, bench.ProtocolWheat} {
		fmt.Printf("running %s ...\n", protocol)
		rows, err := bench.RunGeoCell(bench.GeoCell{
			Protocol:          protocol,
			BlockSize:         10,
			EnvSize:           1024,
			WindowPerFrontend: 96,
			Warmup:            2 * time.Second,
			Measure:           5 * time.Second,
		})
		if err != nil {
			return err
		}
		for _, row := range rows {
			table.AddRow(string(row.Frontend), string(row.Protocol),
				row.MedianMs, row.P90Ms, row.TxPerSec)
			perProto, ok := results[string(row.Frontend)]
			if !ok {
				perProto = make(map[bench.GeoProtocol]float64)
				results[string(row.Frontend)] = perProto
			}
			perProto[protocol] = row.MedianMs
		}
	}
	fmt.Println()
	fmt.Print(table.String())
	fmt.Println()
	for frontend, perProto := range results {
		bft, wheat := perProto[bench.ProtocolBFTSmart], perProto[bench.ProtocolWheat]
		if bft > 0 && wheat > 0 {
			fmt.Printf("%-10s WHEAT is %.0f%% of BFT-SMaRt's median latency\n",
				frontend+":", 100*wheat/bft)
		}
	}
	return nil
}
