package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending without disturbing the caller's
// order (latency slices stay in request order for the trace artefact).
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile is the nearest-rank percentile of an ascending slice: the
// smallest sample with at least q of the samples at or below it. An empty
// slice yields NaN so a missing measurement can never pass for a fast one.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// samplesBeyond counts the samples strictly above the q-th percentile's
// rank; a percentile is only reported when at least ten lie beyond it.
func samplesBeyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method), because that is what the acceptance check
// computes the run-to-run spread with.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	m := len(s)
	if m < 2 {
		v := math.NaN()
		if m == 1 {
			v = s[0]
		}
		return v, v, v
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// nsToFloat converts a latency slice for the percentile helpers.
func nsToFloat(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v)
	}
	return out
}
