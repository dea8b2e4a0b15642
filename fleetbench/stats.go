package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by the nearest-rank rule; xs is
// sorted in place. It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	k := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(k, 0), len(xs)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio returns a/b, or 0 when b is 0 (a ratio with no base).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
