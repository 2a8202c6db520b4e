package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles a tail latency may be reported at,
// lowest first.
var tailLadder = []float64{50, 90, 95, 99, 99.9, 99.99}

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// tailPercentile returns the highest percentile of tailLadder that has at
// least minBeyond samples beyond it in a sample of n, and false when even
// the median has fewer.
func tailPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range tailLadder {
		if beyond(n, p) >= minBeyond {
			best, ok = p, true
		}
	}
	return best, ok
}

// beyond is the number of samples strictly above the nearest-rank p-th
// percentile of a sample of n.
func beyond(n int, p float64) int { return n - rank(n, p) }

// rank is the 1-based nearest-rank index of the p-th percentile.
func rank(n int, p float64) int {
	// The epsilon keeps p·n/100 that is whole on paper (99.9% of 10000)
	// from rounding up past it in floating point.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of xs, which it
// sorts in place. Samples may be +Inf (a requester never admitted): they
// sort beyond every finite sample, so a failure raises every percentile
// it reaches instead of being dropped. Empty input gives NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), p)-1]
}

// median returns the median of xs without reordering it (the mean of the
// two middle values for an even count); empty input gives NaN.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the arithmetic mean of xs; empty input gives 0.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
