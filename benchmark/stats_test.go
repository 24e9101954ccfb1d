package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	sample := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {91, 10}, {99, 10}, {100, 10}, {10, 1}, {0.1, 1},
	} {
		if got := percentile(sample, tc.p); got != tc.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one value = %v, want it", got)
	}
}

// The expected values are what Python prints for
// statistics.quantiles(values, n=4), the rule the acceptance procedure
// measures spread with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		values []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 30, 20}, 10, 30},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{9.9, 10.1, 10.0, 9.8, 10.3}, 9.85, 10.2},
	} {
		q1, q3 := quartiles(tc.values)
		if math.Abs(q1-tc.q1) > 1e-9 || math.Abs(q3-tc.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.values, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestMedianAndSpread(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	// IQR of 1..10 is 5.5 around a median of 5.5.
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-9 {
		t.Errorf("spread = %v, want 1", got)
	}
}

// One disturbed slice out of four moves the pooled p90 and not the sliced
// one; a series too short to cut is pooled.
func TestSlicedPercentileIgnoresOneDisturbedSlice(t *testing.T) {
	series := make([]float64, 4*sliceSamples)
	for i := range series {
		series[i] = 1
		if i >= sliceSamples && i < 2*sliceSamples {
			series[i] = 100 // the second slice is disturbed throughout
		}
	}
	if got := percentile(sortedCopy(series), 90); got != 100 {
		t.Fatalf("pooled p90 = %v: the test needs a disturbance the pooled figure sees", got)
	}
	if got := slicedPercentile(series, 4, 90); got != 1 {
		t.Errorf("sliced p90 = %v, want 1: three of four slices are undisturbed", got)
	}
	if got := slicedPercentile(series, 1, 90); got != 100 {
		t.Errorf("one slice = %v, want the pooled 100", got)
	}
	short := series[sliceSamples : sliceSamples+10]
	if got := slicedPercentile(short, 12, 50); got != 100 {
		t.Errorf("short series = %v, want its pooled median 100", got)
	}
}
