package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCounterGaugeConcurrent hammers one counter and one gauge from many
// goroutines; totals must be exact (run under -race in CI).
func TestCounterGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "test counter")
	g := r.Gauge("g", "test gauge")
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				c.Add(2)
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if got, want := c.Value(), uint64(workers*per*3); got != want {
		t.Fatalf("counter = %d, want %d", got, want)
	}
	if got, want := g.Value(), int64(workers*per); got != want {
		t.Fatalf("gauge = %d, want %d", got, want)
	}
}

// TestHistogramConcurrent checks count/sum/bucket totals stay exact under
// concurrent observation.
func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "test histogram", []float64{1, 2, 4})
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(0.5) // bucket le=1
				h.Observe(3)   // bucket le=4
				h.Observe(100) // +Inf
			}
		}()
	}
	wg.Wait()
	total := uint64(workers * per * 3)
	if h.Count() != total {
		t.Fatalf("count = %d, want %d", h.Count(), total)
	}
	wantSum := float64(workers*per) * (0.5 + 3 + 100)
	if math.Abs(h.Sum()-wantSum) > 1e-6 {
		t.Fatalf("sum = %v, want %v", h.Sum(), wantSum)
	}
	_, counts := h.Snapshot()
	want := []uint64{workers * per, 0, workers * per, workers * per}
	for i, c := range counts {
		if c != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, c, want[i])
		}
	}
}

func TestHistogramIgnoresNaN(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{1})
	h.Observe(math.NaN())
	h.Observe(0.5)
	if h.Count() != 1 || math.IsNaN(h.Sum()) {
		t.Fatalf("NaN observation leaked: count=%d sum=%v", h.Count(), h.Sum())
	}
}

// TestPrometheusTextGolden pins the exposition format byte for byte.
func TestPrometheusTextGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter(Name("repro_wal_fsync_total", "node", "0"), "WAL fsync calls.").Add(42)
	r.Counter(Name("repro_wal_fsync_total", "node", "1"), "WAL fsync calls.").Add(7)
	r.Gauge("repro_live", "Liveness flag.").Set(1)
	h := r.Histogram(Name("repro_wave_size", "node", "0"), "Wave sizes.", []float64{1, 4})
	h.Observe(1)
	h.Observe(3)
	h.Observe(9)
	r.GaugeFunc("repro_watermark", "Watermark.", func() float64 { return 12 })

	var b strings.Builder
	WriteText(&b, r.Gather())
	want := `# HELP repro_wal_fsync_total WAL fsync calls.
# TYPE repro_wal_fsync_total counter
repro_wal_fsync_total{node="0"} 42
repro_wal_fsync_total{node="1"} 7
# HELP repro_live Liveness flag.
# TYPE repro_live gauge
repro_live 1
# HELP repro_wave_size Wave sizes.
# TYPE repro_wave_size histogram
repro_wave_size_bucket{node="0",le="1"} 1
repro_wave_size_bucket{node="0",le="4"} 2
repro_wave_size_bucket{node="0",le="+Inf"} 3
repro_wave_size_sum{node="0"} 13
repro_wave_size_count{node="0"} 3
# HELP repro_watermark Watermark.
# TYPE repro_watermark gauge
repro_watermark 12
`
	if got := b.String(); got != want {
		t.Fatalf("text exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestRegistryReattach(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "")
	a.Add(5)
	b := r.Counter("x_total", "")
	if a != b {
		t.Fatal("re-registration did not return the existing counter")
	}
	if b.Value() != 5 {
		t.Fatalf("reattached counter lost its value: %d", b.Value())
	}
}

func TestQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q", "", LinearBuckets(10, 10, 10)) // 10..100
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if p50 := h.Quantile(0.50); p50 < 40 || p50 > 60 {
		t.Fatalf("p50 = %v, want ~50", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 90 || p99 > 100 {
		t.Fatalf("p99 = %v, want ~99", p99)
	}
	// Family-level merge across two labeled points.
	h2 := r.Histogram(Name("fq", "n", "0"), "", LinearBuckets(10, 10, 10))
	h3 := r.Histogram(Name("fq", "n", "1"), "", LinearBuckets(10, 10, 10))
	for i := 1; i <= 50; i++ {
		h2.Observe(float64(i))
		h3.Observe(float64(i + 50))
	}
	f := r.Family("fq")
	if f.Count() != 100 {
		t.Fatalf("family count = %d, want 100", f.Count())
	}
	if p50 := f.Quantile(0.50); p50 < 40 || p50 > 60 {
		t.Fatalf("merged p50 = %v, want ~50", p50)
	}
}

// TestObsDisabledZeroAlloc proves the disabled path (nil registry -> nil
// instruments) allocates nothing on the hot path.
func TestObsDisabledZeroAlloc(t *testing.T) {
	var r *Registry
	m := NewStorageMetrics(r).OrNop()
	n := NewNodeMetrics(r).OrNop()
	allocs := testing.AllocsPerRun(1000, func() {
		m.FsyncTotal.Inc()
		m.WaveSize.Observe(17)
		m.FsyncSeconds.ObserveDuration(3 * time.Millisecond)
		n.BlocksSealed.Add(2)
		n.Watermark("ch").Set(9)
		n.StageDecide.ObserveDuration(time.Millisecond)
		n.StageDecideLast.ObserveDuration(time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("disabled metrics path allocated %v times per op, want 0", allocs)
	}
}

// TestObsEnabledZeroAlloc proves the enabled fast path (pre-registered
// instruments) is also allocation-free per update.
func TestObsEnabledZeroAlloc(t *testing.T) {
	r := NewRegistry()
	m := NewStorageMetrics(r, "node", "0").OrNop()
	allocs := testing.AllocsPerRun(1000, func() {
		m.FsyncTotal.Inc()
		m.WaveSize.Observe(17)
		m.FsyncSeconds.ObserveDuration(3 * time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("enabled metrics path allocated %v times per op, want 0", allocs)
	}
}

// BenchmarkObsOverhead is the CI alloc guard: 0 allocs/op for both the
// disabled (nil) and enabled instrument paths.
func BenchmarkObsOverhead(b *testing.B) {
	b.Run("disabled", func(b *testing.B) {
		m := (*StorageMetrics)(nil).OrNop()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.FsyncTotal.Inc()
			m.WaveSize.Observe(float64(i & 1023))
			m.FsyncSeconds.ObserveDuration(time.Microsecond)
		}
	})
	b.Run("enabled", func(b *testing.B) {
		r := NewRegistry()
		m := NewStorageMetrics(r, "node", "0").OrNop()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.FsyncTotal.Inc()
			m.WaveSize.Observe(float64(i & 1023))
			m.FsyncSeconds.ObserveDuration(time.Microsecond)
		}
	})
}
