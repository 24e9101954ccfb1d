package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of a
// sorted sample: the smallest value with at least p percent of the sample
// at or below it. An empty sample answers 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// sortedCopy returns the sample in ascending order without touching it.
func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

// median is the middle value (mean of the two middle values for an even
// count), the statistic every repeated measurement is summarised by.
func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method), because the
// acceptance rule for this benchmark is stated in those terms. Fewer than
// two values answer the single value (or 0) for both.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		const n = 4
		j := i * (m + 1) / n
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median: the
// run-to-run noise figure the bounds are sized against.
func spread(v []float64) float64 {
	med := median(v)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(med)
}

// sliceSamples is the fewest samples a slice of the window may hold.
const sliceSamples = 500

// slicedPercentile cuts a series, kept in the order it was recorded, into
// up to maxSlices consecutive slices of equal count and at least
// sliceSamples each, and returns the median over the slices of each slice's
// p-th percentile. One disturbed second of a twelve-second window (a
// neighbour's burst on the shared machine) moves the pooled p90 and leaves
// this one where the other eleven put it. A series too short to cut is
// pooled.
func slicedPercentile(series []float64, maxSlices int, p float64) float64 {
	slices := min(maxSlices, len(series)/sliceSamples)
	if slices < 2 {
		return percentile(sortedCopy(series), p)
	}
	per := len(series) / slices
	each := make([]float64, slices)
	for i := range each {
		each[i] = percentile(sortedCopy(series[i*per:(i+1)*per]), p)
	}
	return median(each)
}
