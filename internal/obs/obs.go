// Package obs is the stack's zero-dependency observability layer: atomic
// counters and gauges, lock-cheap fixed-bucket histograms, and scrape-time
// gauge functions behind a Registry, exposed over HTTP in Prometheus text
// format and JSON (http.go) and bundled into per-subsystem metric sets
// (metrics.go).
//
// Every instrument is nil-receiver safe: code paths hold plain pointers and
// call Inc/Add/Observe unconditionally; when metrics are disabled the
// pointers are nil and the calls are a single branch with zero allocations
// (guarded by BenchmarkObsOverhead). Registries are likewise nil-safe, so a
// subsystem constructed without a registry gets nil instruments for free.
package obs

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Metric type names as exposed in Prometheus TYPE comments.
const (
	TypeCounter   = "counter"
	TypeGauge     = "gauge"
	TypeHistogram = "histogram"
)

// Counter is a monotonically increasing uint64. The zero value is ready to
// use; a nil Counter discards all updates.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable int64. The zero value is ready to use; a nil Gauge
// discards all updates.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add increments (or decrements, with negative n) the value.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets with atomic adds; the
// running sum is a CAS loop over float64 bits. Bounds are upper bounds in
// ascending order; an implicit +Inf bucket catches the overflow. A nil
// Histogram discards all observations.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

// Observe records one sample. NaN samples are dropped so a poisoned input
// can never corrupt the running sum.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	idx := sort.SearchFloat64s(h.bounds, v)
	h.counts[idx].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds (the Prometheus base unit).
func (h *Histogram) ObserveDuration(d time.Duration) {
	if h == nil {
		return
	}
	h.Observe(d.Seconds())
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Snapshot returns the bucket upper bounds and per-bucket (non-cumulative)
// counts; the final count is the +Inf bucket.
func (h *Histogram) Snapshot() (bounds []float64, counts []uint64) {
	if h == nil {
		return nil, nil
	}
	counts = make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return h.bounds, counts
}

// Quantile estimates the q-th quantile (0 < q < 1) by linear interpolation
// inside the bucket holding the target rank. Values in the +Inf bucket
// report the largest finite bound. Returns 0 without observations.
func (h *Histogram) Quantile(q float64) float64 {
	bounds, counts := h.Snapshot()
	return bucketQuantile(q, bounds, counts)
}

func bucketQuantile(q float64, bounds []float64, counts []uint64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 || len(bounds) == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen float64
	for i, c := range counts {
		prev := seen
		seen += float64(c)
		if seen < rank {
			continue
		}
		if i >= len(bounds) { // +Inf bucket
			return bounds[len(bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := bounds[i]
		if c == 0 {
			return hi
		}
		return lo + (hi-lo)*((rank-prev)/float64(c))
	}
	return bounds[len(bounds)-1]
}

// ExponentialBuckets returns n upper bounds starting at start, each factor
// times the previous.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = start
		start *= factor
	}
	return b
}

// LinearBuckets returns n upper bounds starting at start, spaced by width.
func LinearBuckets(start, width float64, n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = start
		start += width
	}
	return b
}

// DurationBuckets are the default latency bounds in seconds: 1µs to ~42s
// exponentially (×2 per bucket, 26 buckets including the implicit +Inf
// overflow above ~33.5s).
func DurationBuckets() []float64 {
	return ExponentialBuckets(1e-6, 2, 25)
}

// SizeBuckets are the default count-shaped bounds (wave sizes, batch
// sizes): powers of two from 1 to 4096.
func SizeBuckets() []float64 {
	return ExponentialBuckets(1, 2, 13)
}

// metric is one registered instrument plus its exposition metadata.
type metric struct {
	name   string // full name including any {label="v"} suffix
	help   string
	typ    string
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
	gaugeF func() float64
}

// Registry holds named instruments and renders them for exposition. A nil
// Registry returns nil instruments from every constructor, which silently
// discard updates — disabling metrics is just not creating a registry.
//
// Names carry Prometheus labels inline: Name("repro_wal_fsync_total",
// "node", "3") registers `repro_wal_fsync_total{node="3"}`. Registering the
// same full name twice returns the existing instrument (a restarted node
// re-attaches to its metrics rather than double-registering).
type Registry struct {
	mu      sync.Mutex
	order   []string
	metrics map[string]*metric
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// Name composes a family name and label key/value pairs into a full metric
// name: Name("x_total", "node", "1", "channel", "c") -> `x_total{node="1",channel="c"}`.
func Name(family string, kv ...string) string {
	if len(kv) == 0 {
		return family
	}
	var b strings.Builder
	b.WriteString(family)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(kv[i+1])
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func (r *Registry) lookup(name, help, typ string) (*metric, bool) {
	if m, ok := r.metrics[name]; ok {
		return m, true
	}
	m := &metric{name: name, help: help, typ: typ}
	r.metrics[name] = m
	r.order = append(r.order, name)
	return m, false
}

// Counter registers (or re-attaches to) a counter under the full name.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m, existed := r.lookup(name, help, TypeCounter)
	if !existed {
		m.ctr = &Counter{}
	}
	return m.ctr
}

// Gauge registers (or re-attaches to) a gauge under the full name.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m, existed := r.lookup(name, help, TypeGauge)
	if !existed {
		m.gauge = &Gauge{}
	}
	return m.gauge
}

// Histogram registers (or re-attaches to) a histogram with the given upper
// bounds (DurationBuckets() when nil).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = DurationBuckets()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m, existed := r.lookup(name, help, TypeHistogram)
	if !existed {
		m.hist = &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
	}
	return m.hist
}

// GaugeFunc registers a gauge whose value is computed at scrape time; a
// second registration under the same name replaces the function (a
// restarted node's closures must read the live node, not the dead one).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m, _ := r.lookup(name, help, TypeGauge)
	m.gaugeF = fn
}

// Point is one instrument's state at gather time.
type Point struct {
	Labels string    `json:"labels,omitempty"` // `k="v",...` without braces
	Value  float64   `json:"value"`            // counter/gauge value, histogram sum
	Count  uint64    `json:"count,omitempty"`  // histogram observation count
	Bounds []float64 `json:"bounds,omitempty"`
	Counts []uint64  `json:"counts,omitempty"` // per-bucket, non-cumulative; last is +Inf
}

// Quantile estimates a quantile from the point's histogram buckets.
func (p Point) Quantile(q float64) float64 { return bucketQuantile(q, p.Bounds, p.Counts) }

// Family groups every labeled point that shares one metric name.
type Family struct {
	Name   string  `json:"name"`
	Help   string  `json:"help,omitempty"`
	Type   string  `json:"type"`
	Points []Point `json:"points"`
}

// Quantile estimates a quantile from all of the family's histogram points
// merged (bucket bounds must match, which they do for bundle-created
// instruments).
func (f Family) Quantile(q float64) float64 {
	var bounds []float64
	var merged []uint64
	for _, p := range f.Points {
		if len(p.Counts) == 0 {
			continue
		}
		if merged == nil {
			bounds = p.Bounds
			merged = make([]uint64, len(p.Counts))
		}
		if len(p.Counts) != len(merged) {
			continue
		}
		for i, c := range p.Counts {
			merged[i] += c
		}
	}
	return bucketQuantile(q, bounds, merged)
}

// Count sums the observation counts of all histogram points in the family.
func (f Family) Count() uint64 {
	var n uint64
	for _, p := range f.Points {
		n += p.Count
	}
	return n
}

// splitName separates a full metric name into family and label suffix.
func splitName(full string) (family, labels string) {
	if i := strings.IndexByte(full, '{'); i >= 0 && strings.HasSuffix(full, "}") {
		return full[:i], full[i+1 : len(full)-1]
	}
	return full, ""
}

// Gather snapshots every registered instrument, grouped into families in
// registration order. Gauge functions are evaluated here.
func (r *Registry) Gather() []Family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	metrics := make([]*metric, 0, len(r.order))
	for _, name := range r.order {
		metrics = append(metrics, r.metrics[name])
	}
	r.mu.Unlock()

	var families []Family
	index := make(map[string]int)
	for _, m := range metrics {
		family, labels := splitName(m.name)
		p := Point{Labels: labels}
		switch {
		case m.ctr != nil:
			p.Value = float64(m.ctr.Value())
		case m.gaugeF != nil:
			p.Value = m.gaugeF()
		case m.gauge != nil:
			p.Value = float64(m.gauge.Value())
		case m.hist != nil:
			p.Bounds, p.Counts = m.hist.Snapshot()
			p.Count = m.hist.Count()
			p.Value = m.hist.Sum()
		}
		i, ok := index[family]
		if !ok {
			i = len(families)
			index[family] = i
			families = append(families, Family{Name: family, Help: m.help, Type: m.typ})
		}
		families[i].Points = append(families[i].Points, p)
	}
	return families
}

// Family returns the gathered family with the given name, or a zero Family.
func (r *Registry) Family(name string) Family {
	for _, f := range r.Gather() {
		if f.Name == name {
			return f
		}
	}
	return Family{}
}
