// Package drift models time-evolving channels and the online controller
// that keeps a COPA pair's allocation fresh as they move (ROADMAP:
// "Time: mobility, CSI drift, and incremental re-allocation").
//
// The physical layer is a Doppler-filtered tap-evolution model: each
// tapped-delay link advances by one AR(1) step per control tick, with
// the per-step correlation set to the Jakes autocorrelation
// J₀(2π·f_d·Δt) of the mobile's speed. On top of it, a deterministic
// event timeline injects client re-associations and AP churn. The
// control layer is a drift detector plus re-allocation loop
// (Controller) that compares realized against predicted throughput and
// — on threshold crossing — either re-allocates incrementally
// (warm-started Equi-SNR, cached nulling plans, delta-CSI frames) or
// falls back to a full ITS exchange.
package drift

import (
	"math"

	"copa/internal/channel"
)

// Profile names a mobility speed from the evaluation's sweep axis.
type Profile struct {
	Name     string
	SpeedMps float64
}

// The standard mobility profiles: static clients (the paper's testbed),
// walking speed, and urban-vehicular speed.
var (
	Static     = Profile{Name: "static", SpeedMps: 0}
	Pedestrian = Profile{Name: "pedestrian", SpeedMps: 1.5}
	Vehicular  = Profile{Name: "vehicular", SpeedMps: 13.9}
)

// DopplerHz returns the maximum Doppler shift f_d = v·f_c/c at the
// simulation's carrier frequency.
func DopplerHz(speedMps float64) float64 {
	return speedMps * channel.CarrierFrequencyHz / channel.SpeedOfLight
}

// StepRho returns the per-step tap correlation for one dt-second
// evolution step at the given speed: the Jakes autocorrelation
// J₀(2π·f_d·Δt), clamped to [0, 1]. Beyond the first zero of J₀ the
// fading is effectively decorrelated, so the clamp at 0 yields i.i.d.
// redraws rather than the (unphysical for a WSS model step) negative
// correlation. Speed 0 (or dt ≤ 0) returns exactly 1, which
// Link.EvolveRho treats as a strict no-op — the foundation of the
// controller's speed-0 byte-identity guarantee.
func StepRho(speedMps, dtSeconds float64) float64 {
	if speedMps <= 0 || dtSeconds <= 0 {
		return 1
	}
	rho := math.J0(2 * math.Pi * DopplerHz(speedMps) * dtSeconds)
	if rho < 0 {
		return 0
	}
	if rho > 1 {
		return 1
	}
	return rho
}
