package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// values, or 0 for an empty slice. It sorts values in place.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sort.Float64s(values)
	rank := int(math.Ceil(p*float64(len(values))/100)) - 1
	return values[min(max(rank, 0), len(values)-1)]
}

// median returns the middle value (the mean of the two middle values for
// an even count), or 0 for an empty slice. It sorts values in place.
func median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	sort.Float64s(values)
	if n%2 == 1 {
		return values[n/2]
	}
	return (values[n/2-1] + values[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) computes them (the exclusive method),
// which is what the benchmark contract's spread rule uses. It needs at
// least two values and sorts them in place.
func quartiles(values []float64) (q1, q3 float64) {
	sort.Float64s(values)
	ld := len(values)
	cut := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (values[j-1]*float64(4-delta) + values[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}
