package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: a p99 needs at least 1000 samples, a p50 at least 20.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs and whether
// it may be reported, i.e. at least minBeyond samples lie beyond it.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 || float64(n)*(100-p)/100 < minBeyond {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], true
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no values. Unlike percentile it
// is used for the per-repetition aggregates of one run, where every
// value is itself a whole measurement.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
