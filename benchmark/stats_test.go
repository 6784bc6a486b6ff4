package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: the helpers must sort
	}
	return xs
}

func TestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{100, 0.50, 50.5, true},
		{100, 0.90, 90.1, true},   // 10 samples beyond
		{100, 0.95, 95.05, false}, // 5 beyond: a tail of outliers
		{200, 0.95, 190.05, true}, // exactly 10 beyond
		{199, 0.95, 189.1, false}, // 9 beyond
		{40, 0.75, 30.25, true},
		{19, 0.50, 10, false},
		{1, 0.50, 1, false},
	} {
		got, ok := percentile(seq(tc.n), tc.p)
		if math.Abs(got-tc.want) > 1e-9 || ok != tc.ok {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported ok")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4),
// the rule run-to-run spreads are judged by, including its extrapolation
// on tiny samples.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{seq(10), 2.75, 5.5, 8.25},
		{seq(11), 3, 6, 9},
		{seq(3), 1, 2, 3},
		{seq(2), 0.75, 1.5, 2.25},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, m, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || m != tc.m || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v; want %v %v %v", tc.xs, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}
