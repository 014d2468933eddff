package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs: the smallest sample
// with at least a q share of the samples at or below it. It sorts xs in
// place. An empty sample has no quantile; it reads NaN so a metric built
// from it cannot pass for a measurement.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// median is the nearest-rank 0.5-quantile.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean returns the arithmetic mean (NaN for no samples).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// failFrac is (offered − delivered) / offered: every request that was
// shed, overflowed, missed its deadline or failed counts against it.
func failFrac(offered, delivered int) float64 {
	if offered <= 0 {
		return 0
	}
	return float64(offered-delivered) / float64(offered)
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
