package core

import (
	"fmt"
	"math"
	"time"

	"copa/internal/channel"
	"copa/internal/mac"
	"copa/internal/power"
)

// ScheduleConfig drives a time-domain simulation of a COPA pair: the
// physical channels evolve continuously at the environment's coherence
// time, the clients sound the channel every refresh interval, and the APs
// renegotiate via a fresh ITS exchange after each sounding — exactly the
// cadence trade-off behind Table 1 and the §3.1 discussion of coherence
// time.
type ScheduleConfig struct {
	// Duration is the simulated medium time.
	Duration time.Duration
	// Coherence is the environment's channel coherence time (how fast
	// the truth drifts); Inf for a static environment.
	Coherence time.Duration
	// RefreshInterval is how often CSI is re-measured and the strategy
	// renegotiated. Defaults to Coherence (the paper refreshes once per
	// coherence time).
	RefreshInterval time.Duration
}

// ScheduleResult summarizes a schedule run.
type ScheduleResult struct {
	// MeanPerClientBps is each client's long-run average throughput.
	MeanPerClientBps [2]float64
	// Exchanges counts ITS negotiations performed.
	Exchanges int
	// ConcurrentFraction is the share of exchanges that chose
	// concurrency.
	ConcurrentFraction float64
	// TXOPs is the number of transmit opportunities simulated.
	TXOPs int
	// ControlBytes accumulates ITS traffic.
	ControlBytes int
}

// Aggregate returns the sum of both clients' mean throughputs.
func (r ScheduleResult) Aggregate() float64 {
	return r.MeanPerClientBps[0] + r.MeanPerClientBps[1]
}

// RunSchedule simulates the pair for cfg.Duration of medium time. Between
// renegotiations the pair keeps transmitting with the stale agreement
// while the true channel drifts away from the CSI it was computed on — so
// short coherence times with long refresh intervals lose throughput, and
// frequent refreshes pay more ITS overhead (the tension Table 1
// quantifies).
func (p *Pair) RunSchedule(cfg ScheduleConfig) (ScheduleResult, error) {
	if cfg.Duration <= 0 {
		return ScheduleResult{}, fmt.Errorf("core: non-positive duration")
	}
	defer mScheduleSeconds.Begin().End()
	mScheduleRuns.Inc()
	refresh := cfg.RefreshInterval
	if refresh <= 0 {
		refresh = cfg.Coherence
	}
	if refresh <= 0 || refresh > cfg.Duration {
		refresh = cfg.Duration
	}
	coherenceSec := math.Inf(1)
	if cfg.Coherence > 0 {
		coherenceSec = cfg.Coherence.Seconds()
	}

	var res ScheduleResult
	var sumTput [2]float64
	end := p.clk + cfg.Duration
	ovm := mac.DefaultOverheadModel()
	noise := channel.NoisePerSubcarrierMW()

	for p.clk < end {
		p.MeasureCSI()
		session, err := p.RunExchange(uint32(mac.TxOp.Microseconds()))
		if err != nil {
			return res, fmt.Errorf("exchange at t=%v: %w", p.clk, err)
		}
		res.Exchanges++
		res.ControlBytes += session.ControlBytes
		if session.Concurrent {
			res.ConcurrentFraction++
		}

		// Run TXOPs until the next refresh, the truth drifting under the
		// negotiated transmissions.
		next := p.clk + refresh
		if next > end {
			next = end
		}
		// Each side keeps its end state until the next sounding: a
		// follower that deferred holds no plan, so it stays silent for
		// the whole interval, whatever the leader does.
		turn, silent := session.LeaderIdx, -1
		if session.Deferred {
			silent = 1 - session.LeaderIdx
		}
		for p.clk < next {
			res.TXOPs++
			if session.Concurrent {
				oh := ovm.COPAConcOverhead(refresh)
				for j := 0; j < 2; j++ {
					if session.Tx[j] == nil {
						continue // a deferring follower has no Tx
					}
					g := power.GoodputFor(p.Truth.H[j][j], session.Tx[j], p.Truth.H[1-j][j], session.Tx[1-j], noise)
					sumTput[j] += g * (1 - oh - mac.DataOverheadFraction)
				}
			} else {
				// Alternating turns: the sequential plan, or plain CSMA
				// once the retry budget is exhausted, until the next
				// sounding gives the pair another chance. A missing
				// descriptor (no fresh CSI) or a deferring follower idles
				// that AP's turn.
				tx, oh := session.Tx[turn], ovm.COPASeqOverhead(refresh)
				if session.Fallback {
					tx, _ = p.AP[turn].CSMATransmission(p.clk)
					oh = mac.CSMACTSOverhead()
				}
				if tx != nil && turn != silent {
					g := power.GoodputFor(p.Truth.H[turn][turn], tx, nil, nil, noise)
					sumTput[turn] += g * (1 - oh - mac.DataOverheadFraction)
				}
				turn = 1 - turn
			}
			p.Advance(mac.TxOp, coherenceSec)
		}
	}

	total := res.TXOPs
	if total > 0 {
		// Sequential TXOPs carry one client each; the per-client mean is
		// normalized over all TXOPs, matching the airtime-share model.
		for j := 0; j < 2; j++ {
			res.MeanPerClientBps[j] = sumTput[j] / float64(total)
		}
	}
	if res.Exchanges > 0 {
		res.ConcurrentFraction /= float64(res.Exchanges)
	}
	return res, nil
}
