package power

import (
	"math"
	"sort"
	"sync"

	"copa/internal/ofdm"
)

// mmseTable tabulates the MMSE function of a discrete constellation:
// mmse(γ) = E|x − E[x|y]|² for y = √γ·x + n, n ~ CN(0,1), with x drawn
// uniformly from the unit-average-energy constellation. This is the
// derivative of the constellation's mutual information with respect to
// SNR (the I-MMSE relation), which is what mercury/water-filling levels.
type mmseTable struct {
	snr    []float64 // ascending γ grid
	mmse   []float64 // descending mmse values; mmse(0) = 1
	logSNR []float64 // log(snr[i]) for i ≥ 1; logSNR[0] is unused
}

// pamPoints returns the per-dimension PAM alphabet of a square QAM (or
// BPSK/QPSK) constellation, scaled so the full complex constellation has
// unit average energy. For BPSK the imaginary dimension carries nothing.
func pamPoints(m ofdm.Modulation) (points []float64, dims int) {
	switch m {
	case ofdm.BPSK:
		return []float64{-1, 1}, 1
	case ofdm.QPSK:
		s := 1 / math.Sqrt2
		return []float64{-s, s}, 2
	case ofdm.QAM16:
		s := 1 / math.Sqrt(10)
		return []float64{-3 * s, -s, s, 3 * s}, 2
	case ofdm.QAM64:
		s := 1 / math.Sqrt(42)
		return []float64{-7 * s, -5 * s, -3 * s, -s, s, 3 * s, 5 * s, 7 * s}, 2
	}
	panic("power: unknown modulation")
}

// pamMMSE numerically computes the one-dimensional MMSE of estimating a
// PAM symbol a from y = √γ·a + n, n ~ N(0, 1/2) (one dimension of unit
// complex noise), by trapezoid integration over y.
func pamMMSE(points []float64, gamma float64) float64 {
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
	var ws [8]float64 // one Gaussian weight per point; PAM alphabets have ≤ 8
	for i := 0; i <= steps; i++ {
		y := lo + float64(i)*dy
		var wsum, awsum float64
		for j, a := range points {
			d := y - sg*a
			w := math.Exp(-d * d / (2 * sigma2))
			ws[j] = w
			wsum += w
			awsum += a * w
		}
		if wsum == 0 {
			continue
		}
		est := awsum / wsum
		var val float64
		for j, a := range points {
			w := ws[j] / math.Sqrt(2*math.Pi*sigma2)
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

var (
	mmseTables   map[ofdm.Modulation]*mmseTable
	mmseBuildOne sync.Once
)

// constellations are the modulations of the MCS table, each with its
// own MMSE table and mercury/water-filling solve.
var constellations = []ofdm.Modulation{ofdm.BPSK, ofdm.QPSK, ofdm.QAM16, ofdm.QAM64}

// tableFor returns the (lazily built, cached) MMSE table for a modulation.
func tableFor(m ofdm.Modulation) *mmseTable {
	mmseBuildOne.Do(func() {
		mmseTables = make(map[ofdm.Modulation]*mmseTable)
		for _, mod := range constellations {
			mmseTables[mod] = buildTable(mod, pamMMSE)
		}
	})
	return mmseTables[m]
}

// buildTable tabulates one constellation's MMSE with the given
// one-dimensional integrand on the fixed 1e-3 … 1e4 log grid.
func buildTable(mod ofdm.Modulation, integrand func(points []float64, gamma float64) float64) *mmseTable {
	points, dims := pamPoints(mod)
	const n = 140
	t := &mmseTable{
		snr:    make([]float64, 0, n+1),
		mmse:   make([]float64, 0, n+1),
		logSNR: make([]float64, n+1),
	}
	t.snr = append(t.snr, 0)
	t.mmse = append(t.mmse, integrand(points, 0)*float64(dims))
	for i := 0; i < n; i++ {
		gamma := math.Pow(10, -3+7*float64(i)/(n-1)) // 1e-3 … 1e4
		v := integrand(points, gamma) * float64(dims)
		t.snr = append(t.snr, gamma)
		t.mmse = append(t.mmse, v)
	}
	// Enforce monotonicity against integration jitter.
	for i := 1; i < len(t.mmse); i++ {
		if t.mmse[i] > t.mmse[i-1] {
			t.mmse[i] = t.mmse[i-1]
		}
	}
	for i := 1; i < len(t.snr); i++ {
		t.logSNR[i] = math.Log(t.snr[i])
	}
	return t
}

// MMSE returns the constellation's MMSE at linear SNR gamma, interpolated
// from the table (exact 1.0 at gamma = 0, clamped to ~0 beyond the grid).
func MMSE(m ofdm.Modulation, gamma float64) float64 {
	t := tableFor(m)
	if gamma <= 0 {
		return t.mmse[0]
	}
	last := len(t.snr) - 1
	if gamma >= t.snr[last] {
		return t.mmse[last]
	}
	i := sort.SearchFloat64s(t.snr, gamma)
	if i == 0 {
		return t.mmse[0]
	}
	// Linear interpolation in log-γ (linear in γ on the first segment,
	// whose left end is γ = 0).
	var frac float64
	if i == 1 {
		frac = gamma / t.snr[1]
	} else {
		frac = (math.Log(gamma) - t.logSNR[i-1]) / (t.logSNR[i] - t.logSNR[i-1])
	}
	return t.mmse[i-1] + frac*(t.mmse[i]-t.mmse[i-1])
}

// inverse returns the γ at which the table's interpolated MMSE equals
// v: 0 for v ≥ mmse(0), the grid's top for v at or below its floor. In between it inverts MMSE's interpolant exactly. The segment
// is found by binary search for the first tabulated mmse ≤ v; the entry
// to its left is strictly greater, so a flat run left by the
// monotonicity clamp is never the chosen segment. That segment is then
// solved in closed form — linear in γ on the first segment, linear in
// log γ on every other.
func (t *mmseTable) inverse(v float64) float64 {
	if v >= t.mmse[0] {
		return 0
	}
	last := len(t.mmse) - 1
	if v <= t.mmse[last] {
		return t.snr[last]
	}
	// First j ≥ 1 with mmse[j] ≤ v; mmse[j-1] > v.
	lo, hi := 1, last
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.mmse[mid] <= v {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	j := lo
	frac := (v - t.mmse[j-1]) / (t.mmse[j] - t.mmse[j-1])
	if j == 1 {
		return frac * t.snr[1]
	}
	return math.Exp(t.logSNR[j-1] + frac*(t.logSNR[j]-t.logSNR[j-1]))
}

// mercurySpend returns the total power the water level lambda spends:
// Σ mmse⁻¹(λ/g_k)/g_k over the finite coefficients g_k > λ. When
// powers is non-nil it also writes each subcarrier's power (zero for the
// rest); the water-level search passes nil and allocates nothing.
func mercurySpend(t *mmseTable, coef []float64, lambda float64, powers []float64) float64 {
	var total float64
	for k, g := range coef {
		if g <= lambda || !finite(g) {
			continue
		}
		p := t.inverse(lambda/g) / g
		if powers != nil {
			powers[k] = p
		}
		total += p
	}
	return total
}

// finite reports whether g is neither NaN nor ±Inf.
func finite(g float64) bool { return !math.IsNaN(g) && !math.IsInf(g, 0) }

// MercuryWaterfill computes the optimal power allocation for a stream
// carrying constellation m over subcarriers with SINR-per-mW coefficients
// coef, under total budget budgetMW (Lozano–Tulino–Verdú mercury/water-
// filling). The KKT condition is coef_k · mmse(p_k·coef_k) = λ for active
// subcarriers; subcarriers with coef_k ≤ λ receive no power at all —
// the built-in cutoff that subsumes subcarrier selection.
//
// Degenerate inputs:
//   - a non-finite coefficient (NaN or ±Inf) is a dead subcarrier: it
//     gets zero power and is counted in Dropped;
//   - empty coef gives an empty allocation;
//   - if every coefficient is ≤ 0 the result is NoPA. If the finite
//     coefficients are all ≤ 0 but some are non-finite, the budget is
//     split equally over the finite ones.
func MercuryWaterfill(m ofdm.Modulation, coef []float64, budgetMW float64) Allocation {
	mMercuryCalls.Inc()
	gmax, dead := 0.0, 0
	for _, g := range coef {
		if !finite(g) {
			dead++
			continue
		}
		gmax = math.Max(gmax, g)
	}
	if gmax <= 0 {
		if dead == 0 {
			return NoPA(coef, budgetMW)
		}
		powers := make([]float64, len(coef))
		per := budgetMW / float64(len(coef)-dead)
		for k, g := range coef {
			if finite(g) {
				powers[k] = per
			}
		}
		return Allocation{
			PowerMW: powers,
			Rate:    ofdm.BestRate(predictedSINRs(powers, coef)),
			Dropped: dead,
		}
	}
	t := tableFor(m)
	// λ → 0 spends everything available; λ → gmax spends nothing. Each
	// probe's (lo, hi) is a pure function of the last, so once a probe
	// leaves both unchanged every later one would too: stopping there
	// gives the 64-probe result exactly.
	lo, hi := gmax*1e-15, gmax
	for i := 0; i < 64; i++ {
		mid := math.Sqrt(lo * hi) // geometric bisection: λ spans decades
		if mercurySpend(t, coef, mid, nil) > budgetMW {
			if mid == lo {
				break
			}
			lo = mid
		} else {
			if mid == hi {
				break
			}
			hi = mid
		}
	}
	powers := make([]float64, len(coef))
	total := mercurySpend(t, coef, math.Sqrt(lo*hi), powers)
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

// MercuryBest runs mercury/water-filling for every constellation in the
// MCS table and returns the allocation whose predicted 802.11 throughput
// is highest — the inner step of the paper's COPA+ (§4.2).
func MercuryBest(coef []float64, budgetMW float64) Allocation {
	var best Allocation
	for _, m := range constellations {
		a := MercuryWaterfill(m, coef, budgetMW)
		if a.Rate.GoodputBps > best.Rate.GoodputBps || best.PowerMW == nil {
			best = a
		}
	}
	return best
}
