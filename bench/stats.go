package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, or NaN when it is empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median is the midpoint median (mean of the two central values for an
// even count), NaN when v is empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sortedCopy(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of v the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), so the spread
// printed here is the one the acceptance rule computes. It needs two
// values; fewer return NaNs.
func quartiles(v []float64) (q1, q3 float64) {
	n := len(v)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	s := sortedCopy(v)
	at := func(i int) float64 { // i-th of 3 cut points, 1-based
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the inter-quartile distance of v as a share of its median.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	m := median(v)
	if m == 0 || math.IsNaN(m) {
		return math.NaN()
	}
	return (q3 - q1) / math.Abs(m)
}

// windowed is a value reported under the stability rule: the median of
// per-window values, with their inter-quartile spread beside it.
type windowed struct {
	Value  float64
	Spread float64
}

func windowMedian(perWindow []float64) windowed {
	return windowed{Value: median(perWindow), Spread: spread(perWindow)}
}

// selfTimes subtracts, op by op, the child-depth duration from the parent
// depth's: a layer's self time is its span minus the span one depth down
// for the same op. Both slices are indexed by op.
func selfTimes(parent, child []float64) []float64 {
	out := make([]float64, len(parent))
	for i := range parent {
		out[i] = parent[i] - child[i]
	}
	return out
}
