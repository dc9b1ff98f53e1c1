package power

import (
	"math"

	"copa/internal/ofdm"
)

// This file keeps the original bisection-based mercury/water-filling as
// the reference the closed-form kernel is checked against (DESIGN §13,
// kernel-tolerance tier): mmseInverseOracle bisects the interpolated
// MMSE, and mercuryWaterfillOracle allocates a fresh power vector at
// every water-level probe. pamMMSEOracle is the table integrand as it
// was first written, evaluating each Gaussian weight twice.

// mmseInverseOracle returns the γ at which the constellation's MMSE
// equals v (v ∈ (0, 1]), by bisection over the tabulated, monotone
// function.
func mmseInverseOracle(m ofdm.Modulation, v float64) float64 {
	t := tableFor(m)
	if v >= t.mmse[0] {
		return 0
	}
	last := len(t.mmse) - 1
	if v <= t.mmse[last] {
		return t.snr[last]
	}
	lo, hi := 0.0, t.snr[last]
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if MMSE(m, mid) > v {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// mercuryWaterfillOracle is MercuryWaterfill with the bisection inverse
// and the allocating water-level search.
func mercuryWaterfillOracle(m ofdm.Modulation, coef []float64, budgetMW float64) Allocation {
	spend := func(lambda float64) ([]float64, float64) {
		powers := make([]float64, len(coef))
		var total float64
		for k, g := range coef {
			if g <= lambda || g <= 0 {
				continue
			}
			gamma := mmseInverseOracle(m, lambda/g)
			powers[k] = gamma / g
			total += powers[k]
		}
		return powers, total
	}

	gmax := 0.0
	for _, g := range coef {
		gmax = math.Max(gmax, g)
	}
	if gmax <= 0 {
		return NoPA(coef, budgetMW)
	}
	// λ → 0 spends everything available; λ → gmax spends nothing.
	lo, hi := gmax*1e-15, gmax
	for i := 0; i < 64; i++ {
		mid := math.Sqrt(lo * hi) // geometric bisection: λ spans decades
		if _, total := spend(mid); total > budgetMW {
			lo = mid
		} else {
			hi = mid
		}
	}
	powers, total := spend(math.Sqrt(lo * hi))
	// Normalize any residual budget error.
	if total > 0 {
		scale := budgetMW / total
		for k := range powers {
			powers[k] *= scale
		}
	}
	dropped := 0
	for _, p := range powers {
		if p <= 0 {
			dropped++
		}
	}
	return Allocation{
		PowerMW: powers,
		Rate:    ofdm.BestRate(predictedSINRs(powers, coef)),
		Dropped: dropped,
	}
}

// mercuryBestOracle is MercuryBest over mercuryWaterfillOracle.
func mercuryBestOracle(coef []float64, budgetMW float64) Allocation {
	var best Allocation
	for _, m := range []ofdm.Modulation{ofdm.BPSK, ofdm.QPSK, ofdm.QAM16, ofdm.QAM64} {
		a := mercuryWaterfillOracle(m, coef, budgetMW)
		if a.Rate.GoodputBps > best.Rate.GoodputBps || best.PowerMW == nil {
			best = a
		}
	}
	return best
}

// pamMMSEOracle is the original table integrand: trapezoid integration
// over y, computing every Gaussian weight once for the posterior mean
// and again for the error term.
func pamMMSEOracle(points []float64, gamma float64) float64 {
	if gamma <= 0 {
		// Prior variance of the PAM alphabet.
		var mean, e2 float64
		for _, a := range points {
			mean += a
			e2 += a * a
		}
		n := float64(len(points))
		mean /= n
		return e2/n - mean*mean
	}
	const sigma2 = 0.5
	sg := math.Sqrt(gamma)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, a := range points {
		lo = math.Min(lo, sg*a)
		hi = math.Max(hi, sg*a)
	}
	span := 7 * math.Sqrt(sigma2)
	lo, hi = lo-span, hi+span
	const steps = 1600
	dy := (hi - lo) / steps
	prior := 1 / float64(len(points))
	var integral float64
	for i := 0; i <= steps; i++ {
		y := lo + float64(i)*dy
		var wsum, awsum float64
		for _, a := range points {
			d := y - sg*a
			w := math.Exp(-d * d / (2 * sigma2))
			wsum += w
			awsum += a * w
		}
		if wsum == 0 {
			continue
		}
		est := awsum / wsum
		var val float64
		for _, a := range points {
			d := y - sg*a
			w := math.Exp(-d*d/(2*sigma2)) / math.Sqrt(2*math.Pi*sigma2)
			e := a - est
			val += prior * w * e * e
		}
		weight := 1.0
		if i == 0 || i == steps {
			weight = 0.5
		}
		integral += weight * val * dy
	}
	return integral
}

// mercuryWaterfill64 is MercuryWaterfill with the water-level bisection
// always running all 64 probes: the reference for its fixed-point exit.
// Inputs with no positive finite coefficient never reach the bisection
// and are passed through.
func mercuryWaterfill64(m ofdm.Modulation, coef []float64, budgetMW float64) Allocation {
	gmax := 0.0
	for _, g := range coef {
		if finite(g) {
			gmax = math.Max(gmax, g)
		}
	}
	if gmax <= 0 {
		return MercuryWaterfill(m, coef, budgetMW)
	}
	t := tableFor(m)
	lo, hi := gmax*1e-15, gmax
	for i := 0; i < 64; i++ {
		mid := math.Sqrt(lo * hi)
		if mercurySpend(t, coef, mid, nil) > budgetMW {
			lo = mid
		} else {
			hi = mid
		}
	}
	powers := make([]float64, len(coef))
	total := mercurySpend(t, coef, math.Sqrt(lo*hi), powers)
	if total > 0 {
		scale := budgetMW / total
		for k := range powers {
			powers[k] *= scale
		}
	}
	dropped := 0
	for _, p := range powers {
		if p <= 0 {
			dropped++
		}
	}
	return Allocation{
		PowerMW: powers,
		Rate:    ofdm.BestRate(predictedSINRs(powers, coef)),
		Dropped: dropped,
	}
}
