package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"syscall"
	"text/tabwriter"
	"time"
)

type orchestrateOpts struct {
	seed    int64
	seconds int
	trace   bool
	repeat  int
	check   bool
	out     string
}

// childRun is what one child process reported.
type childRun struct {
	res result
	det detail
}

// summary is one metric of one workload over a set of runs.
type summary struct {
	Name   string    `json:"name"`
	Kind   string    `json:"kind"` // end_to_end or per_layer
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Bound  float64   `json:"bound,omitempty"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Runs   int       `json:"runs"`
	Values []float64 `json:"values"`
}

// workloadReport is everything the report says about one workload.
type workloadReport struct {
	Name           string    `json:"name"`
	Why            string    `json:"why"`
	Network        string    `json:"network_model"`
	Disk           string    `json:"disk_model"`
	Seeds          []int64   `json:"seeds"`
	WindowSeconds  int       `json:"window_seconds"`
	LatencySamples int       `json:"latency_samples_per_run"`
	Correct        bool      `json:"correct"`
	Attempted      uint64    `json:"attempted"`
	Failed         uint64    `json:"failed"`
	Stalled        bool      `json:"stalled"`
	Violations     []string  `json:"violations,omitempty"`
	TraceFile      string    `json:"trace_file,omitempty"`
	Metrics        []summary `json:"metrics"`
}

// suiteReport is the orchestrator's JSON output.
type suiteReport struct {
	// Claim is always null: this benchmark is the yardstick, it claims no gain.
	Claim     *string          `json:"claim"`
	Env       envInfo          `json:"env"`
	Workloads []workloadReport `json:"workloads"`
	// Check is present with -check: the second set and the comparison.
	Check *checkReport `json:"check,omitempty"`
}

type checkReport struct {
	Second []workloadReport `json:"second_set"`
	Rows   []checkRow       `json:"comparison"`
	Passed bool             `json:"passed"`
}

// checkRow compares one end-to-end metric of one workload across two sets
// of runs of the same build.
type checkRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	MedianA  float64 `json:"median_a"`
	SpreadA  float64 `json:"spread_a"` // (q3-q1)/median
	MedianB  float64 `json:"median_b"`
	SpreadB  float64 `json:"spread_b"`
	Worse    float64 `json:"worse_by"` // share of median A by which B is worse; negative = better
	Bound    float64 `json:"bound"`
	Verdict  string  `json:"verdict"`
}

// orchestrate runs every workload in a child process of its own and
// prints the report. It returns the process exit code.
func orchestrate(o orchestrateOpts) int {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	tmp, err := os.MkdirTemp("", "orderbench-suite-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	removeOnExit(tmp)

	rep := suiteReport{Env: captureEnv(os.TempDir())}
	first, err := runSet(ctx, o, o.seed, tmp)
	rep.Workloads = first
	if err == nil && o.check {
		var second []workloadReport
		second, err = runSet(ctx, o, o.seed+int64(o.repeat), tmp)
		if err == nil {
			rep.Check = compareSets(first, second)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}

	printSuite(os.Stderr, rep)
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	raw = append(raw, '\n')
	if o.out != "" {
		err = os.WriteFile(o.out, raw, 0o644)
	} else {
		_, err = os.Stdout.Write(raw)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	for _, w := range rep.Workloads {
		if !w.Correct {
			return 1
		}
	}
	if rep.Check != nil && !rep.Check.Passed {
		return 1
	}
	return 0
}

// runSet runs every workload o.repeat times, run i with seed base+i, and
// with o.trace once more traced. Runs of different workloads alternate so
// drift of the machine spreads over all of them.
func runSet(ctx context.Context, o orchestrateOpts, base int64, tmp string) ([]workloadReport, error) {
	seconds := o.seconds
	if seconds == 0 {
		seconds = defaultSeconds
	}
	runs := make(map[string][]childRun)
	for i := 0; i < o.repeat; i++ {
		for _, w := range workloads {
			c, err := runChild(ctx, w.Name, base+int64(i), seconds, false, tmp)
			if err != nil {
				return nil, err
			}
			runs[w.Name] = append(runs[w.Name], c)
		}
	}
	var reports []workloadReport
	for _, w := range workloads {
		rep := summarise(w, runs[w.Name], endToEnd, "end_to_end")
		rep.WindowSeconds = seconds
		if o.trace {
			traced := o.seconds
			if traced == 0 {
				traced = tracedSeconds
			}
			c, err := runChild(ctx, w.Name, base, traced, true, tmp)
			if err != nil {
				return nil, err
			}
			layers := summarise(w, []childRun{c}, perLayer, "per_layer")
			rep.Metrics = append(rep.Metrics, layers.Metrics...)
			rep.Metrics = append(rep.Metrics, tracingOverhead(rep, c))
			rep.TraceFile = c.det.TraceFile
			rep.Correct = rep.Correct && layers.Correct
			rep.Violations = append(rep.Violations, layers.Violations...)
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

// tracingOverhead is the median-latency difference between the traced run
// and the untraced ones, as a percentage of the untraced median.
func tracingOverhead(rep workloadReport, traced childRun) summary {
	s := summary{Name: "obs.traced_overhead_pct", Kind: "per_layer", Unit: "%", Better: "lower", Runs: 1}
	for _, m := range rep.Metrics {
		if m.Name == "latency_p50_ms" && m.Median > 0 {
			t := traced.res.Metrics["loadgen.traced_latency_p50_ms"].Value
			s.Median = (t - m.Median) / m.Median * 100
		}
	}
	s.Q1, s.Q3, s.Values = s.Median, s.Median, []float64{s.Median}
	return s
}

// summarise folds the runs of one workload into medians and quartiles.
func summarise(w workload, runs []childRun, defs []metricDef, kind string) workloadReport {
	rep := workloadReport{Name: w.Name, Why: w.Why, Correct: true}
	for _, c := range runs {
		rep.Network, rep.Disk = c.det.Network, c.det.Disk
		rep.Seeds = append(rep.Seeds, c.det.Seed)
		rep.LatencySamples = c.det.Samples
		rep.Correct = rep.Correct && c.res.Correct
		rep.Attempted += c.res.Attempted
		rep.Failed += c.res.Failed
		rep.Stalled = rep.Stalled || c.det.Stalled
		rep.Violations = append(rep.Violations, c.det.Violations...)
	}
	for _, d := range defs {
		s := summary{Name: d.Name, Kind: kind, Unit: d.Unit, Better: d.Better, Bound: d.Bound, Runs: len(runs)}
		for _, c := range runs {
			s.Values = append(s.Values, c.res.Metrics[d.Name].Value)
		}
		s.Median = median(s.Values)
		s.Q1, s.Q3 = quartiles(s.Values)
		rep.Metrics = append(rep.Metrics, s)
	}
	return rep
}

// compareSets is the A/A check: for every workload and end-to-end metric,
// how much worse the second set's median is than the first's, and whether
// the run-to-run spread stays inside the bound. setup_s is held to the
// median rule only, as the acceptance procedure does.
func compareSets(a, b []workloadReport) *checkReport {
	rep := &checkReport{Second: b, Passed: true}
	for i := range a {
		for j, ma := range a[i].Metrics {
			if ma.Kind != "end_to_end" {
				continue
			}
			mb := b[i].Metrics[j]
			row := checkRow{
				Workload: a[i].Name, Metric: ma.Name, Unit: ma.Unit, Bound: ma.Bound,
				MedianA: ma.Median, SpreadA: spread(ma.Values),
				MedianB: mb.Median, SpreadB: spread(mb.Values),
				Verdict: "ok",
			}
			if ma.Median != 0 {
				row.Worse = (mb.Median - ma.Median) / ma.Median
				if ma.Better == "higher" {
					row.Worse = -row.Worse
				}
			}
			widest := max(row.SpreadA, row.SpreadB)
			switch {
			case row.Worse > row.Bound:
				row.Verdict = "FAIL: medians differ beyond the bound"
				rep.Passed = false
			case ma.Name != "setup_s" && widest > row.Bound:
				row.Verdict = "FAIL: spread beyond the bound"
				rep.Passed = false
			case ma.Name != "setup_s" && widest > row.Bound/3:
				row.Verdict = "noisy: spread above a third of the bound"
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	return rep
}

// runChild re-executes this binary for one run of one workload. The child
// keeps its temporary files under tmp, which the orchestrator removes.
func runChild(ctx context.Context, name string, seed int64, seconds int, trace bool, tmp string) (childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	cmd := exec.CommandContext(ctx, exe,
		"-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", traceArg)
	cmd.Env = append(os.Environ(), "TMPDIR="+tmp)
	cmd.Cancel = func() error { return cmd.Process.Signal(os.Interrupt) }
	cmd.WaitDelay = 10 * time.Second
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	fmt.Fprintf(os.Stderr, "--- %s seed %d trace %s\n", name, seed, traceArg)
	runErr := cmd.Run()
	if ctx.Err() != nil {
		return childRun{}, fmt.Errorf("%s: interrupted", name)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	if len(lines) < 2 {
		if runErr == nil {
			runErr = errors.New("no result line")
		}
		return childRun{}, fmt.Errorf("%s: %w", name, runErr)
	}
	var c childRun
	if err := json.Unmarshal(lines[len(lines)-1], &c.res); err != nil {
		return childRun{}, fmt.Errorf("%s: result line: %w", name, err)
	}
	if err := json.Unmarshal(lines[len(lines)-2], &c.det); err != nil {
		return childRun{}, fmt.Errorf("%s: detail line: %w", name, err)
	}
	// A child that printed a result but exited non-zero failed its
	// correctness check; the result says so and the suite goes on.
	return c, nil
}

// printRun is the human summary of one run.
func printRun(w io.Writer, res result, det detail) {
	fmt.Fprintf(w, "%s seed=%d window=%ds traced=%v latency-samples=%d\n",
		det.Workload, det.Seed, det.Seconds, det.Traced, det.Samples)
	fmt.Fprintf(w, "  network: %s\n  disk:    %s\n", det.Network, det.Disk)
	fmt.Fprintf(w, "  nproc=%d GOMAXPROCS=%d %s commit=%s tmp=%s\n",
		det.Env.NumCPU, det.Env.GOMAXPROCS, det.Env.GoVersion, det.Env.Commit, det.Env.Backing)
	defs := endToEnd
	if det.Traced {
		defs = perLayer
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, d := range defs {
		fmt.Fprintf(tw, "  %s\t%.4f\t%s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	tw.Flush()
	fmt.Fprintf(w, "  attempted=%d failed=%d correct=%v", res.Attempted, res.Failed, res.Correct)
	if det.Stalled {
		fmt.Fprint(w, " STALLED (the generator ran more than 10 ms late at p99)")
	}
	fmt.Fprintln(w)
	for _, v := range det.Violations {
		fmt.Fprintf(w, "  violation: %s\n", v)
	}
	if det.TraceFile != "" {
		fmt.Fprintf(w, "  spans: %s\n", det.TraceFile)
	}
}

// printSuite is the human table of a whole report.
func printSuite(w io.Writer, rep suiteReport) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian\tq1\tq3\tunit\truns")
	for _, wl := range rep.Workloads {
		for _, m := range wl.Metrics {
			fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.4f\t%.4f\t%s\t%d\n", wl.Name, m.Name, m.Median, m.Q1, m.Q3, m.Unit, m.Runs)
		}
		state := "correct"
		if !wl.Correct {
			state = "INCORRECT"
		}
		if wl.Stalled {
			state += ", STALLED"
		}
		fmt.Fprintf(tw, "%s\t(%s: %d attempted, %d failed)\t\t\t\t\t\n", wl.Name, state, wl.Attempted, wl.Failed)
	}
	tw.Flush()
	if rep.Check == nil {
		return
	}
	fmt.Fprintln(w)
	tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian A\tspread A\tmedian B\tspread B\tB worse by\tbound\tverdict")
	for _, r := range rep.Check.Rows {
		fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.1f%%\t%.4f\t%.1f%%\t%+.1f%%\t%.0f%%\t%s\n",
			r.Workload, r.Metric, r.MedianA, r.SpreadA*100, r.MedianB, r.SpreadB*100, r.Worse*100, r.Bound*100, r.Verdict)
	}
	tw.Flush()
}
