package precoding

import (
	"fmt"
	"math"
	"testing"

	"copa/internal/channel"
	"copa/internal/linalg"
	"copa/internal/rng"
)

// streamSINRsRef is StreamSINRsWS as it stood before the SINRs shared a
// pass with the SINR coefficients: the kernel-equivalence oracle for the
// SINR half of StreamSINRsAndCoefficientsWS.
func streamSINRsRef(ws *Workspace, own *channel.Link, ownTx *Transmission, cross *channel.Link, crossTx *Transmission, noisePerSCMW float64) [][]float64 {
	nSC := len(own.Subcarriers)
	out := ws.FloatRows(nSC, ownTx.Precoder.Streams)
	for k := 0; k < nSC; k++ {
		h := own.Subcarriers[k]
		nr := h.Rows
		r, a := interferenceCovariance(ws, h, ownTx, cross, crossTx, noisePerSCMW, k)

		sinrs := out[k]
		for s := range sinrs {
			if ownTx.PowerMW[k][s] <= 0 {
				sinrs[s] = Dropped
				continue
			}
			ai := ws.Col(a, s)
			// Qᵢ = R − aᵢaᵢᴴ
			q := ws.Clone(r)
			for ri := 0; ri < nr; ri++ {
				for ci := 0; ci < nr; ci++ {
					q.Set(ri, ci, q.At(ri, ci)-ai[ri]*conj(ai[ci]))
				}
			}
			x, err := q.SolveWS(&ws.Workspace, ai)
			if err != nil {
				sinrs[s] = Dropped
				continue
			}
			sinrs[s] = real(linalg.Dot(ai, x))
			if sinrs[s] < 0 {
				sinrs[s] = 0
			}
		}
	}
	return out
}

// SINRCoefficients linearizes the post-MMSE SINR around the current power
// allocation: entry [k][s] is the SINR per milliwatt that stream s of the
// own sender would see on subcarrier k, holding every other stream (own
// and interfering) at its current power. It is the separate-pass
// reference for the coefficient half of StreamSINRsAndCoefficientsWS.
func SINRCoefficients(own *channel.Link, ownTx *Transmission, cross *channel.Link, crossTx *Transmission, noisePerSCMW float64) [][]float64 {
	var ws Workspace
	return copyRows(SINRCoefficientsWS(&ws, own, ownTx, cross, crossTx, noisePerSCMW))
}

// SINRCoefficientsWS is SINRCoefficients with all scratch and result
// storage carved from ws.
func SINRCoefficientsWS(ws *Workspace, own *channel.Link, ownTx *Transmission, cross *channel.Link, crossTx *Transmission, noisePerSCMW float64) [][]float64 {
	nSC := len(own.Subcarriers)
	out := ws.FloatRows(nSC, ownTx.Precoder.Streams)
	for k := 0; k < nSC; k++ {
		h := own.Subcarriers[k]
		nr := h.Rows
		r, a := interferenceCovariance(ws, h, ownTx, cross, crossTx, noisePerSCMW, k)
		unit := ws.Mul(h, ownTx.Precoder.PerSubcarrier[k]) // unit-power columns

		coefs := out[k]
		for s := range coefs {
			// Q_s: everything except stream s's own signal.
			ai := ws.Col(a, s)
			q := ws.Clone(r)
			for ri := 0; ri < nr; ri++ {
				for ci := 0; ci < nr; ci++ {
					q.Set(ri, ci, q.At(ri, ci)-ai[ri]*conj(ai[ci]))
				}
			}
			ui := ws.Col(unit, s)
			x, err := q.SolveWS(&ws.Workspace, ui)
			if err != nil {
				coefs[s] = 0
				continue
			}
			c := real(linalg.Dot(ui, x))
			if c < 0 {
				c = 0
			}
			coefs[s] = c
		}
	}
	return out
}

// fusedCase is one input of the fused-kernel equivalence suite.
type fusedCase struct {
	name         string
	own, cross   *channel.Link
	ownP, crossP *Precoder
	imp          channel.Impairments
	noise        float64
}

// unevenPowers spreads budget over an nSC×streams grid with pseudo-random
// per-cell weights, zeroing one stream on every fifth subcarrier and
// every stream on subcarrier 7 (a fully dropped subcarrier radiates the
// leakage floor instead of EVM noise).
func unevenPowers(src *rng.Source, nSC, streams int, budget float64) [][]float64 {
	powers := EqualSplit(nSC, streams, budget)
	for k, row := range powers {
		for s := range row {
			row[s] *= 0.25 + 1.5*src.Float64()
			if k%5 == s || k == 7 {
				row[s] = 0
			}
		}
	}
	return powers
}

// zeroSubcarrier returns a copy of l whose subcarrier k is the zero
// matrix: with no thermal noise and no interferer, Qₛ there is the zero
// matrix, which every solve path reports singular.
func zeroSubcarrier(l *channel.Link, k int) *channel.Link {
	out := &channel.Link{Subcarriers: append([]*linalg.Matrix(nil), l.Subcarriers...), MeanGainLinear: l.MeanGainLinear}
	out.Subcarriers[k] = linalg.NewMatrix(l.NRx(), l.NTx())
	return out
}

func fusedCases(t *testing.T) []fusedCase {
	t.Helper()
	noise := channel.NoisePerSubcarrierMW()
	var cases []fusedCase
	for _, sc := range []channel.Scenario{channel.Scenario1x1, channel.Scenario4x2, channel.Scenario3x2} {
		for seed := int64(1); seed <= 3; seed++ {
			dep := channel.DeploymentAt(seed, sc, 0)
			p0, err := Beamforming(dep.H[0][0], sc.Streams)
			if err != nil {
				t.Fatal(err)
			}
			p1, err := Beamforming(dep.H[1][1], sc.Streams)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range []struct {
				name string
				imp  channel.Impairments
			}{{"perfect", channel.PerfectHardware()}, {"txnoise", channel.DefaultImpairments()}} {
				name := fmt.Sprintf("%s/seed%d/%s", sc.Name, seed, imp.name)
				cases = append(cases,
					fusedCase{name + "/solo", dep.H[0][0], nil, p0, nil, imp.imp, noise},
					fusedCase{name + "/cross", dep.H[0][0], dep.H[1][0], p0, p1, imp.imp, noise})
			}
			if sc == channel.Scenario4x2 {
				n0, err := Nulling(dep.H[0][0], dep.H[0][1], sc.Streams)
				if err != nil {
					t.Fatal(err)
				}
				n1, err := Nulling(dep.H[1][1], dep.H[1][0], sc.Streams)
				if err != nil {
					t.Fatal(err)
				}
				cases = append(cases, fusedCase{fmt.Sprintf("4x2/seed%d/nulling", seed), dep.H[0][0], dep.H[1][0], n0, n1, channel.DefaultImpairments(), noise})
			}
		}
	}
	// Four receive antennas take the generic LU solve, not the unrolled
	// 1×1/2×2 paths.
	own, cross := testLink(71, 4, 4, -58), testLink(72, 4, 4, -64)
	p0, _ := Beamforming(own, 3)
	p1, _ := Beamforming(cross, 3)
	cases = append(cases, fusedCase{"4x4/cross", own, cross, p0, p1, channel.DefaultImpairments(), noise})
	// Singular Qₛ on subcarrier 3, for one and for two receive antennas.
	for _, sc := range []channel.Scenario{channel.Scenario1x1, channel.Scenario4x2} {
		dep := channel.DeploymentAt(9, sc, 0)
		p, err := Beamforming(dep.H[0][0], sc.Streams)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, fusedCase{sc.Name + "/singular", zeroSubcarrier(dep.H[0][0], 3), nil, p, nil, channel.PerfectHardware(), 0})
	}
	return cases
}

// TestStreamSINRsAndCoefficientsMatchOracles pins the fused kernel bit
// for bit to the two separate passes it replaces: the SINRs to
// streamSINRsRef and the coefficients to SINRCoefficientsWS, across
// deployments, impairments, interferers, dropped streams and a singular
// Qₛ. Without coefficients it must still give the same SINRs.
func TestStreamSINRsAndCoefficientsMatchOracles(t *testing.T) {
	src := rng.New(5)
	for _, c := range fusedCases(t) {
		t.Run(c.name, func(t *testing.T) {
			nSC := len(c.own.Subcarriers)
			budget := channel.BudgetForAntennasMW(c.ownP.NTx())
			tx := NewTransmission(c.ownP, unevenPowers(src, nSC, c.ownP.Streams, budget), c.imp)
			var crossTx *Transmission
			if c.crossP != nil {
				crossTx = NewTransmission(c.crossP, unevenPowers(src, nSC, c.crossP.Streams, budget), c.imp)
			}
			var ws Workspace
			wantSINR := streamSINRsRef(&ws, c.own, tx, c.cross, crossTx, c.noise)
			wantCoef := SINRCoefficientsWS(&ws, c.own, tx, c.cross, crossTx, c.noise)
			gotCoef := make([][]float64, nSC)
			for k := range gotCoef {
				gotCoef[k] = make([]float64, c.ownP.Streams)
			}
			gotSINR := StreamSINRsAndCoefficientsWS(&ws, c.own, tx, c.cross, crossTx, c.noise, gotCoef)
			onlySINR := StreamSINRsAndCoefficientsWS(&ws, c.own, tx, c.cross, crossTx, c.noise, nil)
			for k := 0; k < nSC; k++ {
				for s := 0; s < c.ownP.Streams; s++ {
					want := math.Float64bits(wantSINR[k][s])
					if g := math.Float64bits(gotSINR[k][s]); g != want {
						t.Fatalf("sc %d stream %d: SINR %v, oracle %v", k, s, gotSINR[k][s], wantSINR[k][s])
					}
					if g := math.Float64bits(onlySINR[k][s]); g != want {
						t.Fatalf("sc %d stream %d: SINR without coefficients %v, oracle %v", k, s, onlySINR[k][s], wantSINR[k][s])
					}
					if math.Float64bits(gotCoef[k][s]) != math.Float64bits(wantCoef[k][s]) {
						t.Fatalf("sc %d stream %d: coefficient %v, oracle %v", k, s, gotCoef[k][s], wantCoef[k][s])
					}
				}
			}
			if c.noise == 0 {
				for s := 0; s < c.ownP.Streams; s++ {
					if gotCoef[3][s] != 0 || (tx.PowerMW[3][s] > 0 && gotSINR[3][s] != Dropped) {
						t.Fatalf("singular subcarrier 3 stream %d: SINR %v coefficient %v, want Dropped and 0", s, gotSINR[3][s], gotCoef[3][s])
					}
				}
			}
		})
	}
}
