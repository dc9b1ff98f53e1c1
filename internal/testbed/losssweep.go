package testbed

import (
	"context"
	"fmt"
	"math"

	"copa/internal/campaign"
	"copa/internal/channel"
	"copa/internal/core"
	"copa/internal/mac"
	"copa/internal/medium"
	"copa/internal/obs"
	"copa/internal/rng"
	"copa/internal/strategy"
)

// LossSweepConfig parameterizes the control-frame-loss robustness sweep:
// how does COPA's realized aggregate degrade as ITS frames start dying,
// and does the retry/fallback machinery keep it from falling below the
// plain-CSMA floor?
type LossSweepConfig struct {
	Seed       int64
	Topologies int
	// LossRates are the stationary control-frame loss probabilities to
	// sweep (DefaultLossRates: 0–30%).
	LossRates []float64
	// MeanBurst > 1 switches the injected loss from i.i.d. to
	// Gilbert–Elliott bursts of this mean length.
	MeanBurst float64
	// Rounds is the number of sounding→exchange→TXOP cycles per topology
	// per rate.
	Rounds      int
	Impairments channel.Impairments
}

// DefaultLossRates spans the sweep the paper's robustness question needs:
// no loss through severe (30%) control-plane loss.
func DefaultLossRates() []float64 { return []float64{0, 0.05, 0.10, 0.20, 0.30} }

// DefaultLossSweepConfig mirrors the figure defaults at a size that runs
// in seconds.
func DefaultLossSweepConfig(seed int64) LossSweepConfig {
	return LossSweepConfig{
		Seed:        seed,
		Topologies:  10,
		LossRates:   DefaultLossRates(),
		MeanBurst:   1,
		Rounds:      8,
		Impairments: channel.DefaultImpairments(),
	}
}

// LossPoint is the sweep at one loss rate.
type LossPoint struct {
	Loss float64
	// AggregateBps is the mean realized aggregate throughput (both
	// clients, fallback rounds scored as CSMA) over all topologies and
	// rounds.
	AggregateBps float64
	// Agg is the streamed per-topology aggregate-throughput column
	// (moments + quantile sketch), the campaign-style form figure
	// generation consumes.
	Agg *campaign.Column
	// PerTopologyBps[t] is topology t's mean aggregate at this rate.
	PerTopologyBps []float64
	// FallbackRate is the fraction of exchanges that exhausted their
	// retry budget and degraded to CSMA.
	FallbackRate float64
	// DeferRate is the fraction in which the follower sent a REQ but
	// heard no verdict and sat the TXOP out: the fail-safe contract's
	// price. DisagreeRate is the fraction that ended with both APs free
	// to transmit on different verdicts, which the contract rules out.
	DeferRate, DisagreeRate float64
	// RetriesPerExchange is the mean number of retransmissions.
	RetriesPerExchange float64
	// ControlBytesPerExchange includes retransmissions.
	ControlBytesPerExchange float64
}

// LossSweep is the full throughput-vs-loss curve for one scenario.
type LossSweep struct {
	Scenario channel.Scenario
	Points   []LossPoint
	// CSMABps[t] is topology t's plain-CSMA baseline aggregate — the
	// floor graceful degradation must not undercut.
	CSMABps []float64
}

// MeanCSMABps is the mean baseline over topologies.
func (s *LossSweep) MeanCSMABps() float64 { return Mean(s.CSMABps) }

// RunLossSweep measures realized COPA throughput against injected
// control-frame loss. Each (topology, rate) cell runs cfg.Rounds cycles
// of sounding, a message-driven ITS exchange over a seeded Faulty medium,
// and throughput measurement on the true channels; fallback rounds score
// as plain CSMA, so the curve shows exactly what the retry/fallback
// machinery salvages. Cancelling ctx aborts the sweep between topology
// cells and returns ctx.Err().
func RunLossSweep(ctx context.Context, sc channel.Scenario, cfg LossSweepConfig) (*LossSweep, error) {
	defer obs.ChildSpan(ctx, "testbed.losssweep").End()
	if cfg.Topologies < 1 || cfg.Rounds < 1 {
		return nil, fmt.Errorf("testbed: loss sweep needs ≥1 topology and round")
	}
	if len(cfg.LossRates) == 0 {
		cfg.LossRates = DefaultLossRates()
	}
	deps := channel.GenerateTestbed(cfg.Seed, sc, cfg.Topologies)
	sweep := &LossSweep{Scenario: sc, CSMABps: make([]float64, cfg.Topologies)}

	count := func(on bool, n *float64) {
		if on {
			*n++
		}
	}
	for _, loss := range cfg.LossRates {
		pt := LossPoint{Loss: loss, Agg: campaign.NewColumn(), PerTopologyBps: make([]float64, cfg.Topologies)}
		for t, dep := range deps {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			// Identically seeded pair per rate: every rate sees the same
			// channels, CSI noise, and leader elections — only the medium
			// differs. The domain tag keeps these streams disjoint from the
			// per-topology deployment streams, which derive directly from
			// (Seed, t).
			src := rng.NewSub(cfg.Seed, domainLossSweep, uint64(t))
			pair := core.NewPair(dep, cfg.Impairments, strategy.DefaultCoherence, strategy.ModeMax, src.Split(2))
			pair.Med = medium.NewFaulty(medium.NewPerfect(), medium.Config{
				Loss:      loss,
				MeanBurst: cfg.MeanBurst,
			}, src.Split(3))

			var agg float64
			for r := 0; r < cfg.Rounds; r++ {
				pair.MeasureCSI()
				if loss == cfg.LossRates[0] && r == 0 {
					csma := pair.CSMAThroughputs()
					sweep.CSMABps[t] = csma[0] + csma[1]
				}
				s, err := pair.RunExchange(uint32(mac.TxOp.Microseconds()))
				if err != nil {
					return nil, fmt.Errorf("loss %.2f topology %d round %d: %w", loss, t, r, err)
				}
				count(s.Fallback, &pt.FallbackRate)
				count(s.Deferred, &pt.DeferRate)
				count(s.Disagreed, &pt.DisagreeRate)
				pt.RetriesPerExchange += float64(s.Retries)
				pt.ControlBytesPerExchange += float64(s.ControlBytes)
				tp := pair.MeasuredThroughputs(s)
				agg += tp[0] + tp[1]
				// Advance the clock without evolving the (shared) truth:
				// every rate must see identical channels.
				pair.Advance(mac.TxOp, math.Inf(1))
			}
			pt.PerTopologyBps[t] = agg / float64(cfg.Rounds)
			pt.Agg.Add(pt.PerTopologyBps[t])
		}
		pt.AggregateBps = pt.Agg.Moments.Mean
		for _, m := range []*float64{&pt.FallbackRate, &pt.DeferRate, &pt.DisagreeRate, &pt.RetriesPerExchange, &pt.ControlBytesPerExchange} {
			*m /= float64(cfg.Topologies * cfg.Rounds)
		}
		sweep.Points = append(sweep.Points, pt)
	}
	return sweep, nil
}

// ExportCSV writes losssweep_<scenario>.csv: loss, aggregate, CSMA
// baseline, fallback, deferral, disagreement and retry rates.
func (s *LossSweep) ExportCSV(dir string) error {
	rows := [][]string{{"loss", "aggregate_bps", "csma_bps", "fallback_rate", "defer_rate", "disagree_rate", "retries_per_exchange", "control_bytes"}}
	base := s.MeanCSMABps()
	for _, p := range s.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%.3f", p.Loss),
			fmt.Sprintf("%.0f", p.AggregateBps),
			fmt.Sprintf("%.0f", base),
			fmt.Sprintf("%.4f", p.FallbackRate),
			fmt.Sprintf("%.4f", p.DeferRate),
			fmt.Sprintf("%.4f", p.DisagreeRate),
			fmt.Sprintf("%.3f", p.RetriesPerExchange),
			fmt.Sprintf("%.0f", p.ControlBytesPerExchange),
		})
	}
	return writeCSV(dir, fmt.Sprintf("losssweep_%s.csv", s.Scenario.Name), rows)
}
