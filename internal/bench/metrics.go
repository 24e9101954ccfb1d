// Package bench is the measurement harness that regenerates every figure of
// the paper's evaluation (Section 6): the signature-generation microbench
// (Figure 6), the LAN throughput sweeps over cluster size, block size,
// envelope size, and receiver count (Figure 7a-f), the geo-distributed
// latency comparison of BFT-SMaRt vs WHEAT (Figures 8-9), and the
// Equation (1) throughput-bound check. Its envelope generator
// (EnvelopeGen, EnvelopeSeq) also drives the chaos matrix's load.
// Performance is judged elsewhere, by the benchmark/ rig.
package bench

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// LatencyRecorder accumulates latency samples and reports percentiles.
// Safe for concurrent use.
type LatencyRecorder struct {
	mu      sync.Mutex
	samples []time.Duration
}

// NewLatencyRecorder creates an empty recorder.
func NewLatencyRecorder() *LatencyRecorder {
	return &LatencyRecorder{}
}

// Record adds one sample.
func (r *LatencyRecorder) Record(d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samples = append(r.samples, d)
}

// Count returns the number of samples.
func (r *LatencyRecorder) Count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.samples)
}

// Reset discards all samples.
func (r *LatencyRecorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samples = r.samples[:0]
}

// Percentile returns the p-th percentile (0 < p <= 100) by the
// nearest-rank method, or zero without samples.
func (r *LatencyRecorder) Percentile(p float64) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.samples) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(r.samples))
	copy(sorted, r.samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(p/100*float64(len(sorted))+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// Median returns the 50th percentile.
func (r *LatencyRecorder) Median() time.Duration { return r.Percentile(50) }

// Table renders aligned rows for terminal output: header cells, then rows.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row (cells are stringified with %v).
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.1f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			for pad := len(cell); pad < widths[i]; pad++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.header, ","))
	b.WriteByte('\n')
	for _, row := range t.rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}
