package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle of xs (the mean of the two middle values for
// an even count), or NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank pct-th percentile of an ascending
// slice: the smallest value with at least pct percent of the samples at or
// below it. Integer percent keeps the rank exact.
func percentile(asc []float64, pct int) float64 {
	if len(asc) == 0 {
		return math.NaN()
	}
	return asc[rankOf(len(asc), pct)]
}

// rankOf is the 0-based nearest-rank index of the pct-th percentile of n
// samples: ceil(pct·n/100) − 1, clamped to the slice.
func rankOf(n, pct int) int {
	r := (pct*n+99)/100 - 1
	return max(0, min(n-1, r))
}

// beyond counts the samples strictly past the pct-th percentile's rank.
func beyond(n, pct int) int {
	return n - 1 - rankOf(n, pct)
}

// minTailBeyond is how many samples must lie past the tail percentile in
// every run for the percentile to mean anything.
const minTailBeyond = 10

// tailPercentile picks a workload's fixed tail percentile from the op
// count every run is guaranteed to reach: p99 from 1,000 ops up, otherwise
// the highest whole percentile that still leaves minTailBeyond samples
// past it.
func tailPercentile(minOps int) int {
	if minOps >= 1000 {
		return 99
	}
	for pct := 98; pct > 50; pct-- {
		if beyond(minOps, pct) >= minTailBeyond {
			return pct
		}
	}
	return 50
}
