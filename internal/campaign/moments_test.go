package campaign

import (
	"math"
	"testing"

	"copa/internal/rng"
)

func naiveMeanVar(xs []float64) (mean, variance float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		variance += (x - mean) * (x - mean)
	}
	return mean, variance / float64(len(xs))
}

func TestMomentsMatchesNaive(t *testing.T) {
	src := rng.New(1)
	xs := make([]float64, 5000)
	var m Moments
	for i := range xs {
		xs[i] = math.Exp(src.Norm()) * 1e8 // lognormal, throughput-scale
		m.Add(xs[i])
	}
	mean, variance := naiveMeanVar(xs)
	if rel := math.Abs(m.Mean-mean) / mean; rel > 1e-12 {
		t.Errorf("mean off by %.2e relative", rel)
	}
	if rel := math.Abs(m.Variance()-variance) / variance; rel > 1e-9 {
		t.Errorf("variance off by %.2e relative", rel)
	}
}

func TestMomentsMergeMatchesSequential(t *testing.T) {
	// Splitting a stream at any point and merging must agree with the
	// one-pass accumulator to floating-point noise, and the merge of a
	// fixed partition must be exactly reproducible (same arithmetic →
	// same bits), which is what engine determinism rests on.
	src := rng.New(2)
	xs := make([]float64, 1000)
	var whole Moments
	for i := range xs {
		xs[i] = src.Uniform(-5, 50)
		whole.Add(xs[i])
	}
	for _, cut := range []int{0, 1, 500, 999, 1000} {
		var a, b Moments
		for _, x := range xs[:cut] {
			a.Add(x)
		}
		for _, x := range xs[cut:] {
			b.Add(x)
		}
		a.Merge(b)
		if a.N != whole.N {
			t.Fatalf("cut %d: N %d != %d", cut, a.N, whole.N)
		}
		if rel := math.Abs(a.Mean-whole.Mean) / math.Abs(whole.Mean); rel > 1e-12 {
			t.Errorf("cut %d: merged mean off by %.2e relative", cut, rel)
		}
		if rel := math.Abs(a.M2-whole.M2) / whole.M2; rel > 1e-9 {
			t.Errorf("cut %d: merged M2 off by %.2e relative", cut, rel)
		}

		// Bit-exact reproducibility of the same merge.
		var a2, b2 Moments
		for _, x := range xs[:cut] {
			a2.Add(x)
		}
		for _, x := range xs[cut:] {
			b2.Add(x)
		}
		a2.Merge(b2)
		if a2 != a {
			t.Fatalf("cut %d: identical merge not bit-identical", cut)
		}
	}
}

func TestMomentsMergeEmpty(t *testing.T) {
	var a, b Moments
	b.Add(3)
	b.Add(5)
	a.Merge(b) // empty ← non-empty adopts
	if a != b {
		t.Fatal("merge into empty did not adopt")
	}
	before := a
	a.Merge(Moments{}) // non-empty ← empty is a no-op
	if a != before {
		t.Fatal("merging empty changed the accumulator")
	}
}

func TestMomentsOneSampleHasZeroSpread(t *testing.T) {
	var m Moments
	m.Add(7)
	if m.Mean != 7 || m.Variance() != 0 || m.StdDev() != 0 {
		t.Errorf("one sample: mean %g variance %g std %g, want 7, 0, 0", m.Mean, m.Variance(), m.StdDev())
	}
}
