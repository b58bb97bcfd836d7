package main

import (
	"math"
	"sort"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: with fewer, the percentile is one or two outliers and
// does not repeat from run to run.
const minTail = 10

// median returns the middle of xs (the mean of the two middle values
// for an even count), or 0 for no samples.  xs is left unmodified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the nearest-rank q-quantile (0 < q < 1) of
// sorted and whether it may be reported: at least minTail samples must
// lie strictly beyond its rank.
func tailPercentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank], n-1-rank >= minTail
}
