package campaign

import "math"

// Moments is an online count/mean/variance accumulator (Welford's
// algorithm) with an exact parallel merge (Chan et al.). Two Moments
// built from disjoint sample streams merge into precisely the Moments a
// single pass over the concatenated stream (in that order) would
// produce, so shard-local accumulators combine without retaining
// samples. Determinism caveat: floating-point merge is not commutative,
// so the engine always merges shards in ascending unit order.
type Moments struct {
	N    uint64  `json:"n"`
	Mean float64 `json:"mean"`
	// M2 is the sum of squared deviations from the running mean
	// (variance numerator).
	M2 float64 `json:"m2"`
}

// Add folds one sample in.
func (m *Moments) Add(v float64) {
	m.N++
	delta := v - m.Mean
	m.Mean += delta / float64(m.N)
	m.M2 += delta * (v - m.Mean)
}

// Merge folds another accumulator in, as if o's samples were appended
// to m's stream.
func (m *Moments) Merge(o Moments) {
	if o.N == 0 {
		return
	}
	if m.N == 0 {
		*m = o
		return
	}
	n := float64(m.N + o.N)
	delta := o.Mean - m.Mean
	m.Mean += delta * float64(o.N) / n
	m.M2 += o.M2 + delta*delta*float64(m.N)*float64(o.N)/n
	m.N += o.N
}

// Variance is the population variance (divisor N, not N−1), so one
// sample has spread 0; so does an empty accumulator, whose Mean is
// also 0.
func (m Moments) Variance() float64 {
	if m.N < 2 {
		return 0
	}
	return m.M2 / float64(m.N)
}

// StdDev is the population standard deviation.
func (m Moments) StdDev() float64 { return math.Sqrt(m.Variance()) }
