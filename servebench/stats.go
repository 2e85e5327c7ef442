package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest sample with at least p% of the samples at or below
// it, i.e. sorted[ceil(p/100*n)-1]. It sorts a copy and returns 0 for
// an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	return nearestRank(s, p)
}

// nearestRank is percentile over an already sorted sample.
func nearestRank(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	// The epsilon keeps p/100*n that is integral in exact arithmetic
	// (0.99*100) from rounding up past the rank it names.
	k := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return sorted[k]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// mean is the arithmetic mean, 0 for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// median is the middle sample, or the mean of the two middle samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so spreads computed here match the ones computed from the
// same values in Python. A single sample is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return xs[0], xs[0]
	}
	s := sortedCopy(xs)
	m := n + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile range as a share of the median: the
// steadiness figure the benchmark's bounds are set against.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}
