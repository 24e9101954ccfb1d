// Command figures regenerates the figures of the paper's evaluation
// (Section 6):
//
//	-figure 6  Ed25519 block-signature throughput against signing workers
//	-figure 7  ordering-service throughput in a LAN for one cluster size
//	           and block size, swept over envelope sizes and receiver counts
//	-figure 8  geo-distributed latency at four frontends, BFT-SMaRt (4
//	           replicas) against WHEAT (5 replicas, binary vote weights;
//	           instances execute once decided), blocks of 10 envelopes
//	-figure 9  the same comparison with blocks of 100 envelopes
//
// Usage:
//
//	figures -figure 6|7|8|9 [-block N] [-warmup D] [-measure D] [-csv]
//	        [-workers 16]                                     figure 6
//	        [-nodes 4] [-receivers 1,2,4,8,16,32] [-clients 16]
//	        [-all] [-eq1]                                     figure 7
//	        [-sizes 40,200,1024,4096]                         figures 7-9
//	        [-window 128]                                     figures 8-9
//
// A zero -block, -warmup or -measure takes the figure's own default. For
// figure 7, -all runs every panel (4/7/10 nodes x 10/100 envelopes per
// block) and -eq1 adds the Equation (1) bound check for each panel.
//
// figures -figure 8 -sizes 1024 is the short look at Section 6.3: BFT-SMaRt
// against WHEAT at four frontends, 1 kB envelopes in blocks of 10.
//
// These runs reproduce the paper's curves; performance across changes is
// judged by the benchmark/ rig, not by these numbers.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

// options are the parsed flags shared by every figure.
type options struct {
	block            int
	warmup, measure  time.Duration
	csv              bool
	workers          int
	nodes, clients   int
	receivers, sizes []int
	all, eq1         bool
	window           int
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	figure := fs.Int("figure", 0, "figure to regenerate: 6, 7, 8 or 9")
	var o options
	fs.IntVar(&o.block, "block", 0, "envelopes per block (0 = the figure's: 100 for figure 9, else 10)")
	fs.DurationVar(&o.warmup, "warmup", 0, "warmup before measuring (0 = the figure's default)")
	fs.DurationVar(&o.measure, "measure", 0, "measurement window per point (0 = the figure's default)")
	fs.BoolVar(&o.csv, "csv", false, "emit CSV instead of tables")
	fs.IntVar(&o.workers, "workers", 16, "figure 6: sweep signing worker counts 1..N")
	fs.IntVar(&o.nodes, "nodes", 4, "figure 7: ordering cluster size (4, 7, or 10)")
	receivers := fs.String("receivers", "1,2,4,8,16,32", "figure 7: receiver counts to sweep")
	fs.IntVar(&o.clients, "clients", 16, "figure 7: closed-loop load clients")
	fs.BoolVar(&o.all, "all", false, "figure 7: run every panel")
	fs.BoolVar(&o.eq1, "eq1", false, "figure 7: also check Equation (1) for each panel")
	sizes := fs.String("sizes", "40,200,1024,4096", "figures 7-9: envelope sizes to sweep")
	fs.IntVar(&o.window, "window", 128, "figures 8-9: outstanding envelopes per frontend")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var err error
	if o.receivers, err = parseInts(*receivers); err != nil {
		return fmt.Errorf("bad -receivers: %w", err)
	}
	if o.sizes, err = parseInts(*sizes); err != nil {
		return fmt.Errorf("bad -sizes: %w", err)
	}
	if o.block <= 0 {
		o.block = 10
		if *figure == 9 {
			o.block = 100
		}
	}
	switch *figure {
	case 6:
		return figure6(o, out)
	case 7:
		return figure7(o, out)
	case 8, 9:
		return geoFigure(*figure, o, out)
	default:
		return errors.New("-figure must be 6, 7, 8 or 9")
	}
}

func figure6(o options, out io.Writer) error {
	if o.measure <= 0 {
		o.measure = 2 * time.Second
	}
	workers := make([]int, 0, o.workers)
	for w := 1; w <= o.workers; w++ {
		workers = append(workers, w)
	}
	fmt.Fprintf(out, "# Figure 6: signature generation for Fabric blocks (%d envelopes/block)\n", o.block)
	fmt.Fprintf(out, "# host parallelism: GOMAXPROCS=%d (the paper's host had 16 hardware threads)\n",
		runtime.GOMAXPROCS(0))
	rows, err := bench.RunFigure6(workers, o.block, o.measure)
	if err != nil {
		return err
	}
	table := bench.NewTable("workers", "ksignatures/sec")
	for _, row := range rows {
		table.AddRow(row.Workers, row.SigsPerSec/1000)
	}
	o.print(out, table)
	return nil
}

func figure7(o options, out io.Writer) error {
	base := bench.Fig7Cell{Clients: o.clients, Warmup: o.warmup, Measure: o.measure}
	type panel struct{ nodes, block int }
	panels := []panel{{o.nodes, o.block}}
	if o.all {
		panels = []panel{{4, 10}, {4, 100}, {7, 10}, {7, 100}, {10, 10}, {10, 100}}
	}
	for _, p := range panels {
		fmt.Fprintf(out, "# Figure 7: %d orderers, %d envelopes/block\n", p.nodes, p.block)
		rows, err := bench.RunFigure7Panel(p.nodes, p.block, o.sizes, o.receivers, base)
		if err != nil {
			return err
		}
		table := bench.NewTable("env_bytes", "receivers", "ktrans/sec", "blocks/sec")
		for _, row := range rows {
			table.AddRow(row.EnvSize, row.Receivers, row.TxPerSec/1000, row.BlockPerSec)
		}
		o.print(out, table)
		if o.eq1 {
			cell := base
			cell.Nodes = p.nodes
			cell.BlockSize = p.block
			cell.EnvSize = o.sizes[0]
			cell.Receivers = o.receivers[0]
			res, err := bench.RunEquation1(cell)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "# Equation (1): TP=%.0f <= min(sign %.0f, order %.0f) -> %v\n",
				res.MeasuredTPS, res.SignBoundTPS, res.OrderBoundTPS, res.Satisfied)
		}
		fmt.Fprintln(out)
	}
	return nil
}

func geoFigure(figure int, o options, out io.Writer) error {
	fmt.Fprintf(out, "# Figure %d: geo-distributed latency, blocks of %d envelopes\n", figure, o.block)
	fmt.Fprintf(out, "# nodes: Oregon, Ireland, Sydney, Sao Paulo (+Virginia for WHEAT)\n")
	fmt.Fprintf(out, "# frontends: Canada, Oregon (Vmax leader), Virginia (Vmax), Sao Paulo (Vmin)\n")
	table := bench.NewTable("frontend", "protocol", "env_bytes", "median_ms", "p90_ms", "tx/sec", "samples")
	for _, size := range o.sizes {
		for _, protocol := range []bench.GeoProtocol{bench.ProtocolBFTSmart, bench.ProtocolWheat} {
			rows, err := bench.RunGeoCell(bench.GeoCell{
				Protocol:          protocol,
				BlockSize:         o.block,
				EnvSize:           size,
				WindowPerFrontend: o.window,
				Warmup:            o.warmup,
				Measure:           o.measure,
			})
			if err != nil {
				return err
			}
			for _, row := range rows {
				table.AddRow(string(row.Frontend), string(row.Protocol), row.EnvSize,
					row.MedianMs, row.P90Ms, row.TxPerSec, row.Samples)
			}
		}
	}
	o.print(out, table)
	return nil
}

// print writes a result table in the selected format.
func (o options) print(out io.Writer, table *bench.Table) {
	if o.csv {
		fmt.Fprint(out, table.CSV())
		return
	}
	fmt.Fprint(out, table.String())
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
