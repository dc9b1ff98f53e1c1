package drift

import (
	"time"

	"copa/internal/channel"
	"copa/internal/rng"
)

// Model advances a deployment's physical channels through time. All
// randomness is drawn from stateless rng.Derive streams keyed by (seed,
// step, link), so the evolution is a pure function of (initial
// deployment, seed, step sequence): replaying the same steps in a
// second run — or re-materializing a single step on another worker —
// reproduces the exact same channel trajectory.
type Model struct {
	Dep *channel.Deployment
	// SpeedMps is the clients' speed; 0 freezes the channels entirely
	// (every Advance is a no-op, bit for bit).
	SpeedMps float64

	seed int64
	step int64
}

// Stream tags for the model's rng paths (the third path element).
const (
	pathEvolve  = 0x0d  // per-(step, link) AR(1) innovations
	pathReassoc = 0x4e  // client re-association redraws
	pathEvents  = 0xe7  // timeline event-gap draws
	pathMeasure = 0xc51 // controller CSI measurement noise
)

// NewModel wraps a deployment in a drift model. The deployment is
// evolved in place.
func NewModel(dep *channel.Deployment, speedMps float64, seed int64) *Model {
	return &Model{Dep: dep, SpeedMps: speedMps, seed: seed}
}

// Advance evolves all five links (four AP→client channels plus the
// AP↔AP control link) by one dt step at the model's speed. At speed 0
// the links are untouched — EvolveRho(ρ=1) is a strict no-op — but the
// step counter still advances, keeping event/measurement streams
// aligned across speeds.
func (m *Model) Advance(dt time.Duration) {
	m.step++
	rho := StepRho(m.SpeedMps, dt.Seconds())
	if rho >= 1 {
		return
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			m.Dep.H[i][j].EvolveRho(rng.NewSub(m.seed, pathEvolve, uint64(m.step), uint64(i*2+j)), rho)
		}
	}
	m.Dep.APLink.EvolveRho(rng.NewSub(m.seed, pathEvolve, uint64(m.step), 4), rho)
}

// Reassociate models client j leaving and re-appearing elsewhere in the
// cell (or a different client associating): both channels toward the
// client are redrawn as fresh small-scale fading at the deployment's
// large-scale gains. Deterministic in (seed, step, j).
func (m *Model) Reassociate(j int) {
	for i := 0; i < 2; i++ {
		old := m.Dep.H[i][j]
		src := rng.NewSub(m.seed, pathReassoc, uint64(m.step), uint64(i*2+j))
		m.Dep.H[i][j] = channel.NewLink(src, old.NRx(), old.NTx(), old.MeanGainLinear)
	}
}

// MeasureCSI returns the controller's noisy estimate of the channel
// from AP i to client j at the current step, drawn from a stateless
// stream so a given (seed, step, link) always measures the same
// realization.
func (m *Model) MeasureCSI(imp channel.Impairments, i, j int) *channel.Link {
	src := rng.NewSub(m.seed, pathMeasure, uint64(m.step), uint64(i*2+j))
	return imp.EstimateCSI(src, m.Dep.H[i][j])
}
