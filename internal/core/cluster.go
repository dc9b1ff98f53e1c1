package core

import (
	"context"
	"fmt"
	"time"

	"copa/internal/channel"
	"copa/internal/mac"
	"copa/internal/medium"
	"copa/internal/power"
	"copa/internal/rng"
	"copa/internal/strategy"
)

// Cluster simulates more than two COPA APs sharing the medium — the §3.1
// setting where fairness between coordinated pairs and outsiders becomes
// interesting. Each round, DCF randomness elects a leader; the leader
// pairs with the neighbour it hears best (ITS frames need a usable AP–AP
// link), runs the real three-frame exchange, and the pair transmits while
// every other AP defers on the ITS airtime field. A sequential verdict
// grants the pair two consecutive TXOPs, which is what squeezes
// outsiders; the Deference flag applies the paper's proposed remedy (the
// pair sits out the following election).
type Cluster struct {
	APs   []*AP
	Truth *channel.MultiDeployment
	// Deference enables the §3.1 post-sequential sit-out.
	Deference bool
	// Med carries the cluster's ITS frames (Perfect by default).
	Med medium.Medium
	// Retry bounds the exchange engine's persistence against loss.
	Retry RetryPolicy

	clk    time.Duration
	src    *rng.Source
	imp    channel.Impairments
	sitOut []bool
}

// NewCluster builds n COPA APs over a multi-pair deployment.
func NewCluster(dep *channel.MultiDeployment, imp channel.Impairments, coherence time.Duration, mode strategy.Mode, src *rng.Source) *Cluster {
	c := &Cluster{
		Truth:  dep,
		src:    src,
		imp:    imp,
		sitOut: make([]bool, dep.Pairs),
		Med:    medium.NewPerfect(),
		Retry:  DefaultRetryPolicy(),
	}
	for i := 0; i < dep.Pairs; i++ {
		ap := NewAP(
			mac.Addr{0x02, 0xC0, 0xFA, 0x01, 0, byte(i)},
			mac.Addr{0x02, 0xC0, 0xFA, 0x02, 0, byte(i)},
			dep.Scenario, imp, coherence, mode,
		)
		c.APs = append(c.APs, ap)
	}
	return c
}

// MeasureCSI lets every AP overhear every client (Step 1 of Fig. 5,
// cluster-wide).
func (c *Cluster) MeasureCSI() {
	for i := range c.APs {
		for j := range c.APs {
			uplink := c.Truth.H[i][j].Transpose()
			measured := c.imp.EstimateCSI(c.src.Split(uint64(0xA0)+uint64(i*c.Truth.Pairs+j)+uint64(c.clk)), uplink)
			c.APs[i].ObserveTransmission(c.APs[j].ClientAddr, measured, c.clk)
		}
	}
}

// RoundResult reports one contention round of the cluster.
type RoundResult struct {
	Leader, Follower int
	Concurrent       bool
	// Fallback reports the ITS exchange exhausted its retry budget and
	// the round degraded to a plain-CSMA solo transmission.
	Fallback bool
	// TputBps[i] is client i's throughput during this round's TXOP(s);
	// zero for deferring pairs.
	TputBps []float64
	// TXOPs consumed by the round (1 concurrent, 2 sequential).
	TXOPs int
}

// bestFollower picks the AP (other than the leader, and not sitting out)
// with the strongest AP–AP link to the leader: ITS frames must be heard
// to be answered.
func (c *Cluster) bestFollower(leader int) int {
	best, bestGain := -1, -1e18
	for j := range c.APs {
		if j == leader || c.sitOut[j] {
			continue
		}
		if g := c.Truth.APGainDB[leader][j]; g > bestGain {
			best, bestGain = j, g
		}
	}
	return best
}

// RunRound performs one full contention round: election, pairwise ITS
// exchange, transmission, throughput measurement on the true channels.
func (c *Cluster) RunRound() (*RoundResult, error) {
	mClusterRounds.Inc()
	n := c.Truth.Pairs
	// Election among APs not sitting out.
	candidates := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if !c.sitOut[i] {
			candidates = append(candidates, i)
		}
	}
	if len(candidates) == 0 {
		// Everyone deferred (all pairs sat out): clear and re-elect.
		for i := range c.sitOut {
			c.sitOut[i] = false
		}
		for i := 0; i < n; i++ {
			candidates = append(candidates, i)
		}
	}
	leader := candidates[c.src.Intn(len(candidates))]
	follower := c.bestFollower(leader)

	res := &RoundResult{Leader: leader, Follower: follower, TputBps: make([]float64, n), TXOPs: 1}
	for i := range c.sitOut {
		c.sitOut[i] = false
	}
	noise := channel.NoisePerSubcarrierMW()
	ovm := mac.DefaultOverheadModel()

	if follower < 0 {
		// Nobody to coordinate with: the leader transmits solo.
		tx, err := c.APs[leader].SoloTransmission(c.clk)
		if err != nil {
			return nil, fmt.Errorf("solo tx: %w", err)
		}
		g := power.GoodputFor(c.Truth.H[leader][leader], tx, nil, nil, noise)
		res.TputBps[leader] = g * (1 - mac.CSMACTSOverhead() - mac.DataOverheadFraction)
		return res, nil
	}

	s, err := exchange(context.Background(), c.Med, c.APs[leader], c.APs[follower], uint32(mac.TxOp.Microseconds()), c.clk, c.Retry)
	if err != nil {
		return nil, err
	}
	res.Fallback, res.Concurrent = s.Fallback, s.Concurrent
	oh := ovm.COPAConcOverhead(strategy.DefaultCoherence)
	switch {
	case s.Fallback:
		// Negotiation failed on the air: the round degrades to plain
		// CSMA — the contention winner transmits alone to its client
		// (nothing at all without CSI: the TXOP is wasted).
		oh = mac.CSMACTSOverhead()
		s.Tx[0], _ = c.APs[leader].CSMATransmission(c.clk)
	case !s.Concurrent:
		// Sequential: the pair takes two consecutive TXOPs (§3.1), then —
		// with the deference fix — sits out the next election.
		res.TXOPs = 2
		oh = ovm.COPASeqOverhead(strategy.DefaultCoherence)
		if c.Deference {
			c.sitOut[leader] = true
			c.sitOut[follower] = true
			mClusterSitOuts.Add(2)
		}
	}
	// A nil transmission (a deferring follower, a leader without CSI)
	// scores zero and interferes with nobody.
	ids := [2]int{leader, follower}
	for i, j := range ids {
		if s.Tx[i] == nil {
			continue
		}
		var cross *channel.Link
		if s.Concurrent {
			cross = c.Truth.H[ids[1-i]][j]
		}
		g := power.GoodputFor(c.Truth.H[j][j], s.Tx[i], cross, s.Tx[1-i], noise)
		res.TputBps[j] = g * (1 - oh - mac.DataOverheadFraction)
	}
	return res, nil
}

// ClusterStats aggregates many rounds.
type ClusterStats struct {
	// MeanTputBps[i] is client i's long-run average throughput
	// (normalized per TXOP).
	MeanTputBps []float64
	// AirtimeShare[i] is the fraction of TXOPs in which pair i
	// transmitted.
	AirtimeShare []float64
	// JainIndex over airtime shares.
	JainIndex float64
	// ConcurrentFraction of rounds.
	ConcurrentFraction float64
	Rounds             int
}

// RunRounds executes the given number of contention rounds, re-measuring
// CSI before each (the cluster's channels are static within a run).
func (c *Cluster) RunRounds(rounds int) (ClusterStats, error) {
	n := c.Truth.Pairs
	stats := ClusterStats{
		MeanTputBps:  make([]float64, n),
		AirtimeShare: make([]float64, n),
	}
	totalTXOPs := 0
	for r := 0; r < rounds; r++ {
		c.MeasureCSI()
		res, err := c.RunRound()
		if err != nil {
			return stats, err
		}
		stats.Rounds++
		totalTXOPs += res.TXOPs
		if res.Concurrent {
			stats.ConcurrentFraction++
		}
		// Each participating pair transmits for exactly one of the
		// round's TXOPs (sequential: its own turn; concurrent: the shared
		// slot), so its data and airtime contribution is one slot's
		// worth. Shares can sum past 1 when spatial reuse shares a slot.
		for i := 0; i < n; i++ {
			stats.MeanTputBps[i] += res.TputBps[i]
			if res.TputBps[i] > 0 {
				stats.AirtimeShare[i]++
			}
		}
		c.clk += time.Duration(res.TXOPs) * mac.TxOp
	}
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		stats.MeanTputBps[i] /= float64(totalTXOPs)
		stats.AirtimeShare[i] /= float64(totalTXOPs)
		sum += stats.AirtimeShare[i]
		sumSq += stats.AirtimeShare[i] * stats.AirtimeShare[i]
	}
	if sumSq > 0 {
		stats.JainIndex = sum * sum / (float64(n) * sumSq)
	}
	if stats.Rounds > 0 {
		stats.ConcurrentFraction /= float64(stats.Rounds)
	}
	return stats, nil
}
