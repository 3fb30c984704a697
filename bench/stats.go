package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics; xs need not be sorted. An empty
// sample yields NaN so a missing measurement can never read as "fast".
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// samplesBeyond counts the samples strictly above the q-quantile's rank:
// a percentile is only reported when at least ten samples lie beyond it
// (choosing-metrics §1), which at q = 0.90 needs n ≥ 101.
func samplesBeyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - int(math.Ceil(q*float64(n-1)))
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// relDiff is (b−a)/a, the signed change from a to b as a share of a.
func relDiff(a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (b - a) / a
}
