package testbed

import (
	"context"
	"fmt"
	"time"

	"copa/internal/campaign"
	"copa/internal/channel"
	"copa/internal/drift"
	"copa/internal/obs"
	"copa/internal/rng"
)

// MobilityConfig parameterizes the speed × re-negotiation-rate sweep:
// how fast does COPA's realized aggregate decay as clients move, and
// how much of it does the online re-allocation controller claw back at
// each detector aggressiveness?
type MobilityConfig struct {
	Seed       int64
	Topologies int
	// SpeedsMps are the client speeds to sweep.
	SpeedsMps []float64
	// ThresholdsDB are the drift-detector excursion thresholds to sweep
	// (smaller = more aggressive re-negotiation).
	ThresholdsDB []float64
	// Duration is the simulated time per (topology, speed, threshold)
	// cell; Step the controller tick.
	Duration time.Duration
	Step     time.Duration
	// ReassocPerSec / ChurnPerSec feed the controller's event timeline.
	ReassocPerSec float64
	ChurnPerSec   float64
	Impairments   channel.Impairments
}

// DefaultSpeeds spans static through vehicular.
func DefaultSpeeds() []float64 {
	return []float64{0, 0.5, drift.Pedestrian.SpeedMps, 3.0, drift.Vehicular.SpeedMps}
}

// DefaultMobilityConfig mirrors the mobility figure's defaults at a size
// that runs in seconds.
func DefaultMobilityConfig(seed int64) MobilityConfig {
	return MobilityConfig{
		Seed:         seed,
		Topologies:   6,
		SpeedsMps:    DefaultSpeeds(),
		ThresholdsDB: []float64{1.0},
		Duration:     300 * time.Millisecond,
		Step:         5 * time.Millisecond,
		Impairments:  channel.DefaultImpairments(),
	}
}

// MobilityPoint is one (speed, threshold) cell of the sweep.
type MobilityPoint struct {
	SpeedMps    float64
	ThresholdDB float64
	// AggregateBps is the mean realized aggregate throughput across
	// topologies; Agg the streamed per-topology column.
	AggregateBps float64
	Agg          *campaign.Column
	// RenegsPerSec / IncrementalPerSec are the full-exchange and
	// incremental re-allocation rates the controller sustained.
	RenegsPerSec      float64
	IncrementalPerSec float64
	// CertRevocationsPerSec is how often cached nulling plans failed
	// their nullspace certificate on fresh CSI.
	CertRevocationsPerSec float64
	// DeltaByteShare is delta-CSI bytes / (delta + full CSI bytes): the
	// fraction of CSI traffic the incremental path compressed away from
	// full frames.
	DeltaByteShare float64
}

// MobilitySweep is the realized-aggregate-vs-speed surface for one
// scenario.
type MobilitySweep struct {
	Scenario channel.Scenario
	Points   []MobilityPoint
}

// cloneDeployment deep-copies a deployment so each sweep cell evolves
// its own channels from the identical starting state.
func cloneDeployment(d *channel.Deployment) *channel.Deployment {
	out := *d
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			out.H[i][j] = d.H[i][j].Clone()
		}
	}
	out.APLink = d.APLink.Clone()
	return &out
}

// RunMobilitySweep runs the drift controller over every (topology,
// speed, threshold) cell and aggregates realized throughput and
// re-negotiation economics. Every cell starts from the identical
// deployment and controller seed, so cells differ only in the swept
// parameters. Cancelling ctx aborts between cells.
func RunMobilitySweep(ctx context.Context, sc channel.Scenario, cfg MobilityConfig) (*MobilitySweep, error) {
	defer obs.ChildSpan(ctx, "testbed.mobilitysweep").End()
	if cfg.Topologies < 1 {
		return nil, fmt.Errorf("testbed: mobility sweep needs ≥1 topology")
	}
	if len(cfg.SpeedsMps) == 0 {
		cfg.SpeedsMps = DefaultSpeeds()
	}
	if len(cfg.ThresholdsDB) == 0 {
		cfg.ThresholdsDB = []float64{1.0}
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 300 * time.Millisecond
	}
	deps := channel.GenerateTestbed(cfg.Seed, sc, cfg.Topologies)
	sweep := &MobilitySweep{Scenario: sc}

	for _, thr := range cfg.ThresholdsDB {
		for _, speed := range cfg.SpeedsMps {
			pt := MobilityPoint{SpeedMps: speed, ThresholdDB: thr, Agg: campaign.NewColumn()}
			var renegs, incr, revocs, deltaB, fullB float64
			for t, dep := range deps {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				ccfg := drift.DefaultConfig()
				ccfg.Impairments = cfg.Impairments
				ccfg.SpeedMps = speed
				ccfg.ThresholdDB = thr
				ccfg.Step = cfg.Step
				ccfg.ReassocPerSec = cfg.ReassocPerSec
				ccfg.ChurnPerSec = cfg.ChurnPerSec
				// Same controller seed per topology across all cells:
				// cells differ only in speed/threshold.
				ccfg.Seed = rng.Derive(cfg.Seed, domainMobility, uint64(t))
				ctl := drift.NewController(cloneDeployment(dep), cfg.Duration, ccfg)
				stats, err := ctl.Run(cfg.Duration)
				if err != nil {
					return nil, fmt.Errorf("mobility speed=%.1f thr=%.1f topology %d: %w", speed, thr, t, err)
				}
				secs := stats.Elapsed.Seconds()
				pt.Agg.Add(stats.MeanAggregate())
				renegs += float64(stats.Renegotiations) / secs
				incr += float64(stats.Incremental) / secs
				revocs += float64(stats.CertRevocations) / secs
				deltaB += float64(stats.DeltaCSIBytes)
				fullB += float64(stats.FullCSIBytes)
			}
			n := float64(cfg.Topologies)
			pt.AggregateBps = pt.Agg.Moments.Mean
			pt.RenegsPerSec = renegs / n
			pt.IncrementalPerSec = incr / n
			pt.CertRevocationsPerSec = revocs / n
			if deltaB+fullB > 0 {
				pt.DeltaByteShare = deltaB / (deltaB + fullB)
			}
			sweep.Points = append(sweep.Points, pt)
		}
	}
	return sweep, nil
}

// ExportCSV writes mobility_<scenario>.csv: the realized aggregate
// throughput vs client speed figure, one row per (threshold, speed).
func (s *MobilitySweep) ExportCSV(dir string) error {
	rows := [][]string{{
		"threshold_db", "speed_mps", "aggregate_bps",
		"renegs_per_sec", "incremental_per_sec", "cert_revocations_per_sec", "delta_byte_share",
	}}
	for _, p := range s.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%.2f", p.ThresholdDB),
			fmt.Sprintf("%.2f", p.SpeedMps),
			fmt.Sprintf("%.0f", p.AggregateBps),
			fmt.Sprintf("%.2f", p.RenegsPerSec),
			fmt.Sprintf("%.2f", p.IncrementalPerSec),
			fmt.Sprintf("%.2f", p.CertRevocationsPerSec),
			fmt.Sprintf("%.4f", p.DeltaByteShare),
		})
	}
	return writeCSV(dir, fmt.Sprintf("mobility_%s.csv", s.Scenario.Name), rows)
}
