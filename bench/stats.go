package main

import (
	"math"
	"sort"
)

// sgmShift is the shift of the shifted geometric mean, in seconds: the
// paper's s = 10 scaled from its hour-long solves to second-long ones.
const sgmShift = 0.1

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var acc float64
	for _, x := range xs {
		acc += x
	}
	return acc / float64(len(xs))
}

// rank is the nearest-rank position (1-based) of the p-quantile among
// n ≥ 1 samples.
func rank(n int, p float64) int {
	return min(max(int(math.Ceil(p*float64(n))), 1), n)
}

// percentile is the nearest-rank p-quantile (0 < p ≤ 1).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sorted(xs)[rank(len(xs), p)-1]
}

// beyond is how many of n samples lie above the nearest-rank
// p-quantile. A percentile is worth reporting as a tail estimate only
// with at least ten samples beyond it; the reports print this count
// next to every percentile.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method),
// which is the spread the acceptance check of this benchmark uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	if m := median(xs); m != 0 {
		return (q3 - q1) / math.Abs(m)
	}
	return 0
}
