package main

import (
	"math"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.51, 6}, {0.9, 9}, {0.99, 10}, {1, 10},
	}
	for _, c := range cases {
		if got := quantile(append([]float64(nil), xs...), c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// p99 of 1000 samples is the 990th smallest: ten samples lie beyond it.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(1000 - i)
	}
	if got := quantile(big, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile of no samples = %v, want NaN", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2 {
		t.Errorf("median of an even sample = %v, want the lower middle 2", got)
	}
}

func TestFailFrac(t *testing.T) {
	cases := []struct {
		offered, delivered int
		want               float64
	}{
		{100, 100, 0}, {100, 97, 0.03}, {8, 0, 1}, {0, 0, 0},
	}
	for _, c := range cases {
		if got := failFrac(c.offered, c.delivered); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("failFrac(%d, %d) = %v, want %v", c.offered, c.delivered, got, c.want)
		}
	}
}
