package main

import (
	"errors"
	"math"
	"sort"
)

// The benchmark's one statistics implementation. Degenerate inputs have
// written contracts: an empty sample gives NaN (or an error where the
// caller needs one), a single sample is every one of its own
// percentiles, and percentiles never decrease as p grows.

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Percentile returns the p-quantile of xs (p in [0, 1], clamped) by
// linear interpolation between closest ranks, or NaN for an empty xs.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return percentileSorted(sorted(xs), p)
}

func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	p = math.Max(0, math.Min(1, p))
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// Median returns the middle of xs (the mean of the two middle values for
// an even count), or NaN for an empty xs.
func Median(xs []float64) float64 { return Percentile(xs, 0.5) }

// Mean returns the arithmetic mean of xs, or NaN for an empty xs.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// errEmpty is returned by the summaries that cannot describe no data.
var errEmpty = errors.New("stats: empty sample")

// Quartiles returns the first, second and third quartiles of xs exactly
// as Python's statistics.quantiles(xs, n=4) computes them (its default
// "exclusive" method), so a spread computed here matches one computed
// from the same numbers in Python. A single sample is all three
// quartiles.
func Quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0, errEmpty
	case 1:
		return s[0], s[0], s[0], nil
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2], nil
}

// tailBeyond is how many samples must lie above a reported tail
// percentile for it to mean anything.
const tailBeyond = 10

// Tail returns the highest percentile p, at most maxP, that leaves at
// least tailBeyond of xs's samples above it, and the value there. A
// sample too small for any such percentile above the median reports the
// median: its tail cannot be told from its middle. ok is false only for
// an empty sample.
func Tail(xs []float64, maxP float64) (p, v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, math.NaN(), false
	}
	p = math.Max(0.5, math.Min(maxP, 1-float64(tailBeyond)/float64(n)))
	return p, Percentile(xs, p), true
}
