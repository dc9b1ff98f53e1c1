// Package power implements COPA's power-allocation algorithms (§3.2):
//
//   - NoPA — the status quo: equal power on every subcarrier.
//   - Equi-SNR (Algorithm 1) — sort subcarriers by quality, consider
//     dropping the worst i, equalize received S(I)NR on the rest, and keep
//     the drop count that maximizes predicted 802.11 throughput.
//   - Equi-SINR (Fig. 6) — the concurrent, iterative variant: per-stream
//     Equi-SNR against the current interference, recompute the
//     cross-stream interference, iterate, remembering the best solution.
//   - Classic waterfilling — the Gaussian-input optimum, as a baseline.
//   - Mercury/water-filling — the optimum for discrete QAM inputs
//     (Lozano, Tulino, Verdú), including its natural subcarrier cutoff,
//     plus the iterated concurrent variant the paper calls COPA+.
//
// All single-stream allocators work on a vector of per-subcarrier SINR
// coefficients: coef[k] is the linear SINR stream power p_k buys per
// milliwatt on subcarrier k with everything else held fixed (see
// precoding.StreamSINRsAndCoefficientsWS).
package power

import (
	"copa/internal/linalg"
	"copa/internal/ofdm"
	"copa/internal/precoding"
)

// Allocation is the outcome of allocating one stream's power budget
// across subcarriers.
type Allocation struct {
	// PowerMW[k] is the power assigned to subcarrier k (0 = dropped).
	PowerMW []float64
	// Rate is the predicted best 802.11 rate and goodput for the
	// resulting per-subcarrier SINRs.
	Rate ofdm.StreamRate
	// Dropped is the number of subcarriers carrying no power.
	Dropped int
}

// predictedSINRs converts an allocation back to the per-subcarrier SINRs
// implied by the linearized coefficients.
func predictedSINRs(powerMW, coef []float64) []float64 {
	sinrs := make([]float64, len(powerMW))
	predictedSINRsInto(sinrs, powerMW, coef)
	return sinrs
}

// predictedSINRsInto writes the per-subcarrier SINRs implied by the
// linearized coefficients into dst (fully overwritten).
func predictedSINRsInto(dst, powerMW, coef []float64) {
	for k, p := range powerMW {
		if p <= 0 {
			dst[k] = precoding.Dropped
		} else {
			dst[k] = p * coef[k]
		}
	}
}

// NoPA returns the status-quo allocation: budget split equally over all
// subcarriers, nothing dropped (§2's baseline).
func NoPA(coef []float64, budgetMW float64) Allocation {
	n := len(coef)
	powers := make([]float64, n)
	per := budgetMW / float64(n)
	for k := range powers {
		powers[k] = per
	}
	return Allocation{
		PowerMW: powers,
		Rate:    ofdm.BestRate(predictedSINRs(powers, coef)),
	}
}

// EquiSNR implements Algorithm 1 for one stream: for every candidate drop
// count i, give no power to the i weakest subcarriers, equalize the
// received S(I)NR on the rest (p_k ∝ 1/coef_k), predict the best 802.11
// rate, and keep the drop count that maximizes throughput.
//
// When coef is a pure-SNR linearization this is the paper's Equi-SNR; fed
// interference-aware coefficients it is one Equi-SINR step.
func EquiSNR(coef []float64, budgetMW float64) Allocation {
	var ws linalg.Workspace
	a := EquiSNRWS(&ws, coef, budgetMW)
	a.PowerMW = append([]float64(nil), a.PowerMW...)
	return a
}

// EquiSNRWS is EquiSNR with all scratch and the returned power vector
// carved from ws: allocation-free once ws has warmed up. The returned
// Allocation.PowerMW lives in ws (see linalg.Workspace ownership rules).
func EquiSNRWS(ws *linalg.Workspace, coef []float64, budgetMW float64) Allocation {
	mEquiSNRCalls.Inc()
	n := len(coef)
	order := ws.Ints(n)
	for i := range order {
		order[i] = i
	}
	linalg.SortOrderAsc(order, coef)

	best := Allocation{PowerMW: ws.Float64s(n)}
	powers := ws.Float64s(n)
	sinrs := ws.Float64s(n)
	for drop := 0; drop < n; drop++ {
		// Equalize SINR on the kept subcarriers: p_k = T/coef_k with
		// T = budget / Σ 1/coef_k.
		var invSum float64
		usable := 0
		for _, k := range order[drop:] {
			if coef[k] > 0 {
				invSum += 1 / coef[k]
				usable++
			}
		}
		if usable == 0 {
			continue
		}
		// Dropping more subcarriers only shrinks the zero-FER rate ceiling
		// (usable is non-increasing in drop), so once even the top MCS at
		// zero FER cannot strictly beat the incumbent, no later drop count
		// can either — every remaining candidate would be rejected by the
		// strict > below. Skipping them changes nothing but the wall clock.
		if ofdm.StreamGoodputCeiling(usable) <= best.Rate.GoodputBps {
			break
		}
		target := budgetMW / invSum
		clear(powers)
		for _, k := range order[drop:] {
			if coef[k] > 0 {
				powers[k] = target / coef[k]
			}
		}
		predictedSINRsInto(sinrs, powers, coef)
		rate := ofdm.BestRate(sinrs)
		if rate.GoodputBps > best.Rate.GoodputBps {
			copy(best.PowerMW, powers)
			best.Rate = rate
			best.Dropped = n - usable
		}
	}
	if best.Rate.GoodputBps == 0 {
		// Nothing decodable at any drop count: fall back to equal split
		// so the transmission descriptor stays well-formed.
		mDropCount.ObserveInt(0)
		per := budgetMW / float64(n)
		for k := range best.PowerMW {
			best.PowerMW[k] = per
		}
		predictedSINRsInto(sinrs, best.PowerMW, coef)
		best.Rate = ofdm.BestRate(sinrs)
		best.Dropped = 0
		return best
	}
	mDropCount.ObserveInt(best.Dropped)
	return best
}
