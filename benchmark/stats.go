package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a reported tail
// percentile: with fewer, the figure is one or two outliers, not a tail.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p < 1) of xs by linear
// interpolation between order statistics, and whether it may be reported:
// at least minBeyond of the samples must lie beyond it, n - ceil(p·n) of
// them. xs is not modified.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := sorted(xs)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	v := s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
	beyond := len(s) - int(math.Ceil(p*float64(len(s))-1e-9))
	return v, beyond >= minBeyond
}

// quartiles returns q1, the median and q3 of xs with the same rule as
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), so
// spreads printed here match the ones computed over run medians. A single
// sample is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(k int) float64 {
		// statistics.quantiles, method="exclusive", line for line: the
		// clamped index may leave delta outside [0, 4], which extrapolates.
		ld := len(s)
		m := ld + 1
		j := k * m / 4
		j = max(1, min(j, ld-1))
		delta := float64(k*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), median(s), q(3)
}

// median returns the middle value of xs (the mean of the middle two for an
// even count).
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// maxOf returns the largest of xs, 0 for none.
func maxOf(xs []float64) float64 {
	var m float64
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// scale returns xs times f.
func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
