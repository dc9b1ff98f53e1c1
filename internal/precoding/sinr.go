package precoding

import (
	"copa/internal/channel"
)

// Dropped marks a subcarrier that carries no data for a stream in SINR
// matrices; the rate-selection code in package ofdm skips negative
// entries.
const Dropped = -1.0

// Transmission describes one sender's concurrent transmission: the
// precoder shape, the per-subcarrier per-stream power allocation, and the
// transmit-side noise that propagates with it.
type Transmission struct {
	Precoder *Precoder

	// PowerMW[k][s] is the transmit power (mW) on data subcarrier k for
	// stream s. A subcarrier with zero power on all streams is dropped:
	// it carries no data, but still radiates carrier leakage.
	PowerMW [][]float64

	// TxNoiseVarMW[k] is the per-transmit-antenna white-noise variance
	// radiated on subcarrier k: EVM noise proportional to the power
	// actually sent, plus the leakage floor on dropped subcarriers.
	TxNoiseVarMW []float64
}

// NewTransmission bundles a precoder and power allocation, deriving the
// transmit-noise profile from the impairment model: EVM noise at
// imp.TxEVMDB relative to the subcarrier's total radiated power, and —
// because Wi-Fi hardware cannot radiate true zero (§3.2) — carrier
// leakage at channel.LeakageFloorDB relative to the nominal equal-split
// per-subcarrier budget on dropped subcarriers.
func NewTransmission(p *Precoder, powerMW [][]float64, imp channel.Impairments) *Transmission {
	t := &Transmission{Precoder: p, PowerMW: powerMW}
	nTx := float64(p.NTx())
	evm := channel.DBToLinear(imp.TxEVMDB)
	leakPerAntenna := channel.DBToLinear(channel.LeakageFloorDB) * channel.TxBudgetPerSubcarrierMW() / nTx
	t.TxNoiseVarMW = make([]float64, len(powerMW))
	for k, ps := range powerMW {
		var total float64
		for _, pw := range ps {
			total += pw
		}
		if total <= 0 {
			t.TxNoiseVarMW[k] = leakPerAntenna
		} else {
			t.TxNoiseVarMW[k] = evm * total / nTx
		}
	}
	return t
}

// WithExpectedResidual returns a copy of the transmission whose TX-noise
// profile additionally carries the *expected* nulling residual implied by
// a known CSI-error level: a predictor that evaluates a nulling precoder
// against the very estimate it was computed from would otherwise forecast
// a perfect null, systematically overselling concurrent strategies. The
// residual is modeled as white transmit noise at csiErrLinear relative to
// each subcarrier's radiated power.
func (t *Transmission) WithExpectedResidual(csiErrLinear float64) *Transmission {
	if csiErrLinear <= 0 {
		return t
	}
	out := &Transmission{Precoder: t.Precoder, PowerMW: t.PowerMW}
	nTx := float64(t.Precoder.NTx())
	out.TxNoiseVarMW = make([]float64, len(t.TxNoiseVarMW))
	for k, v := range t.TxNoiseVarMW {
		var total float64
		for _, p := range t.PowerMW[k] {
			total += p
		}
		out.TxNoiseVarMW[k] = v + csiErrLinear*total/nTx
	}
	return out
}

// TotalPowerMW returns the power radiated across all subcarriers and
// streams (excluding TX noise).
func (t *Transmission) TotalPowerMW() float64 {
	var sum float64
	for _, ps := range t.PowerMW {
		for _, p := range ps {
			sum += p
		}
	}
	return sum
}

// StreamSINRs returns the per-subcarrier, per-stream post-MMSE SINR
// (linear) at a client:
//
//	own     — true channel from the client's own AP,
//	ownTx   — that AP's transmission,
//	cross   — true channel from the interfering AP (nil if it is silent),
//	crossTx — the interfering AP's transmission (nil if silent),
//
// noisePerSCMW is the receiver noise per subcarrier. The receiver runs an
// MMSE filter over its antennas (§4.1); for stream i the returned value is
// aᵢᴴ·Qᵢ⁻¹·aᵢ with aᵢ the stream's effective received column and Qᵢ the
// covariance of everything else (other streams, TX noise, interference,
// thermal noise). Entries are Dropped for subcarriers the stream does not
// use.
func StreamSINRs(own *channel.Link, ownTx *Transmission, cross *channel.Link, crossTx *Transmission, noisePerSCMW float64) [][]float64 {
	var ws Workspace
	return copyRows(StreamSINRsWS(&ws, own, ownTx, cross, crossTx, noisePerSCMW))
}

// copyRows deep-copies a workspace-carved row matrix onto the heap.
func copyRows(rows [][]float64) [][]float64 {
	out := make([][]float64, len(rows))
	for k := range rows {
		out[k] = append([]float64(nil), rows[k]...)
	}
	return out
}

func conj(c complex128) complex128 { return complex(real(c), -imag(c)) }

// EqualSplit builds the status-quo power allocation: the total budget
// divided evenly across all subcarriers and streams.
func EqualSplit(nSubcarriers, streams int, totalMW float64) [][]float64 {
	per := totalMW / float64(nSubcarriers*streams)
	out := make([][]float64, nSubcarriers)
	for k := range out {
		row := make([]float64, streams)
		for s := range row {
			row[s] = per
		}
		out[k] = row
	}
	return out
}

// MeanSINRDB averages a SINR matrix (linear) over used entries and
// returns the result in dB; dropped entries are excluded.
func MeanSINRDB(sinrs [][]float64) float64 {
	var sum float64
	n := 0
	for _, row := range sinrs {
		for _, s := range row {
			if s >= 0 {
				sum += s
				n++
			}
		}
	}
	if n == 0 {
		return channel.LinearToDB(0)
	}
	return channel.LinearToDB(sum / float64(n))
}
