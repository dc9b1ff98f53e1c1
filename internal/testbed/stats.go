// Package testbed drives the paper's evaluation (§4) on the simulated
// office: it generates topology populations, runs every strategy through
// the full COPA pipeline on each, and produces the data behind every
// figure and table — CDFs of aggregate throughput (Figs. 10–13), the
// nulling micro-measurements (Figs. 2–4, 7), the topology scatter
// (Fig. 9), MAC overhead (Table 1), and the multi-decoder study (Fig. 14).
package testbed

import "math"

// Mean and StdDev summarize raw per-sample slices (Fig. 3's per-topology
// nulling effects, the loss and mobility sweeps, robustness across
// seeds). Population figures (Figs. 10–14, the §1 headlines) read the
// campaign's Moments and Sketch instead.

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		s += (x - m) * (x - m)
	}
	return math.Sqrt(s / float64(len(xs)))
}
