package testbed

import (
	"context"
	"runtime"
	"sync"

	"copa/internal/campaign"
	"copa/internal/channel"
	"copa/internal/obs"
	"copa/internal/rng"
)

// Domain tags namespace the package's stateless RNG substreams (see
// rng.Derive): each family of streams derived from one user-supplied seed
// gets a distinct leading path element so families never alias.
const (
	domainLossSweep  uint64 = 0x1055 // per-topology loss-sweep pair streams
	domainRobustness uint64 = 0x0b57 // per-replicate seeds in RunSeedRobustness
	domainMobility   uint64 = 0x30b1 // per-topology mobility-sweep controller seeds
)

// Scheme names match the paper's figure legends. They are owned by
// internal/campaign (the shared evaluation kernel) and aliased here so
// existing callers keep compiling.
const (
	SchemeCSMA     = campaign.SchemeCSMA
	SchemeCOPASeq  = campaign.SchemeCOPASeq
	SchemeNull     = campaign.SchemeNull // "Null+SDA" in the overconstrained scenario
	SchemeCOPAFair = campaign.SchemeCOPAFair
	SchemeCOPA     = campaign.SchemeCOPA
	SchemeCOPAPF   = campaign.SchemeCOPAPF
	SchemeCOPAP    = campaign.SchemeCOPAP
)

// AllSchemes lists scheme names in the paper's presentation order.
var AllSchemes = campaign.AllSchemes

// PaperMeansMbps is the paper's mean aggregate throughput per scheme, in
// Mb/s, for each of Figs. 10–13, keyed by figure number.
var PaperMeansMbps = map[int]map[string]float64{
	10: {SchemeCSMA: 47.7, SchemeCOPASeq: 51.6,
		SchemeCOPAFair: 53.3, SchemeCOPA: 54.7, SchemeCOPAPF: 53.7, SchemeCOPAP: 55.0},
	11: {SchemeCSMA: 110.1, SchemeCOPASeq: 110.4, SchemeNull: 83.1,
		SchemeCOPAFair: 123.9, SchemeCOPA: 128.1, SchemeCOPAPF: 132.0, SchemeCOPAP: 136.2},
	12: {SchemeCSMA: 110.1, SchemeCOPASeq: 110.4, SchemeNull: 131.7,
		SchemeCOPAFair: 175.8, SchemeCOPA: 178.8, SchemeCOPAPF: 184.4, SchemeCOPAP: 185.9},
	13: {SchemeCSMA: 104.1, SchemeCOPASeq: 108.9, SchemeNull: 87.4,
		SchemeCOPAFair: 117.8, SchemeCOPA: 121.6, SchemeCOPAPF: 122.9, SchemeCOPAP: 126.4},
}

// ScenarioResult holds per-topology aggregate throughputs for every
// scheme in one antenna scenario — the data behind one of Figs. 10–13.
type ScenarioResult struct {
	Scenario   channel.Scenario
	Topologies int
	// PerTopology[scheme][t] is the aggregate (both clients) effective
	// throughput in bits/s on topology t. Schemes that are infeasible in
	// the scenario (Null for 1×1) are absent.
	PerTopology map[string][]float64
}

// MeanMbps returns a scheme's mean aggregate throughput in Mb/s.
func (r *ScenarioResult) MeanMbps(scheme string) float64 {
	return Mean(r.PerTopology[scheme]) / 1e6
}

// Config parameterizes a scenario run.
type Config struct {
	Seed        int64
	Topologies  int
	Impairments channel.Impairments
	// InterferenceDeltaDB scales all cross-channels (−10 reproduces the
	// Fig. 12 weak-interference emulation).
	InterferenceDeltaDB float64
	// SkipCOPAPlus disables the (expensive) mercury/water-filling
	// variants.
	SkipCOPAPlus bool
	// MultiDecoder evaluates with per-subcarrier rate selection (Fig. 14).
	MultiDecoder bool
	// MaxParallel bounds worker goroutines (default: GOMAXPROCS).
	MaxParallel int
}

// DefaultConfig mirrors the paper: 30 topologies, WARP-class impairments.
func DefaultConfig(seed int64) Config {
	return Config{Seed: seed, Topologies: 30, Impairments: channel.DefaultImpairments()}
}

// topologyOutcomes evaluates every scheme on one deployment via the
// shared campaign kernel (bit-identical to what a sharded campaign
// computes for the same topology).
func topologyOutcomes(dep *channel.Deployment, cfg Config, src *rng.Source) (map[string]float64, error) {
	mTopologies.Inc()
	defer mTopologySeconds.Begin().End()
	out, err := campaign.EvaluateTopology(dep, cfg.Impairments, src, campaign.EvalOptions{
		MultiDecoder: cfg.MultiDecoder,
		SkipCOPAPlus: cfg.SkipCOPAPlus,
	})
	if err != nil {
		return nil, err
	}
	mTopologyAggMbps.Observe(out[SchemeCOPA] / 1e6)
	return out, nil
}

// RunScenario evaluates all schemes over a population of topologies,
// in parallel across topologies, deterministically per (seed, scenario).
// Cancelling ctx aborts the run between topologies and returns ctx.Err();
// results computed so far are discarded (a partial population would bias
// every aggregate).
func RunScenario(ctx context.Context, sc channel.Scenario, cfg Config) (*ScenarioResult, error) {
	defer obs.ChildSpan(ctx, "testbed.scenario").End()
	defer mScenarioSeconds.Begin().End()
	mScenarioRuns.Inc()
	deps := channel.GenerateTestbed(cfg.Seed, sc, cfg.Topologies)
	if cfg.InterferenceDeltaDB != 0 {
		for i, d := range deps {
			deps[i] = d.ScaleInterference(cfg.InterferenceDeltaDB)
		}
	}
	res := &ScenarioResult{
		Scenario:    sc,
		Topologies:  cfg.Topologies,
		PerTopology: make(map[string][]float64),
	}
	type one struct {
		idx int
		out map[string]float64
		err error
	}
	workers := cfg.MaxParallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	results := make([]one, len(deps))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	srcs := make([]*rng.Source, len(deps))
	for i := range srcs {
		// Stateless per-topology derivation (xor keeps the evaluation
		// stream family disjoint from the deployment streams, which
		// derive directly from cfg.Seed).
		srcs[i] = rng.NewSub(cfg.Seed^0x5eed, uint64(i))
	}
	for i, dep := range deps {
		wg.Add(1)
		go func(i int, dep *channel.Deployment) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				results[i] = one{idx: i, err: ctx.Err()}
				return
			}
			defer func() { <-sem }()
			if err := ctx.Err(); err != nil {
				results[i] = one{idx: i, err: err}
				return
			}
			out, err := topologyOutcomes(dep, cfg, srcs[i])
			results[i] = one{idx: i, out: out, err: err}
			obs.Logger().Debug("topology evaluated",
				"scenario", sc.Name, "topology", i, "seed", cfg.Seed, "err", err)
		}(i, dep)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		for scheme, v := range r.out {
			res.PerTopology[scheme] = append(res.PerTopology[scheme], v)
		}
	}
	obs.Logger().Debug("scenario complete",
		"scenario", sc.Name, "topologies", cfg.Topologies, "seed", cfg.Seed)
	return res, nil
}

// HeadlineStats computes the paper's §1 claims from a 4×2 scenario run:
// how often vanilla nulling loses to CSMA, COPA's improvement over nulling
// on those topologies, and how often COPA then beats CSMA.
type HeadlineStats struct {
	// NullLosesToCSMA is the fraction of topologies where vanilla
	// nulling underperforms CSMA (paper: 83%).
	NullLosesToCSMA float64
	// COPAOverNullWhereNullLoses is COPA's mean relative improvement
	// over nulling on those topologies (paper: +64%).
	COPAOverNullWhereNullLoses float64
	// COPABeatsCSMAWhereNullLoses is the fraction of those topologies
	// where COPA exceeds CSMA (paper: 76%).
	COPABeatsCSMAWhereNullLoses float64
	// NullWinMedian is nulling's median improvement over CSMA where it
	// wins (paper: 12%).
	NullWinMedian float64
	// COPAWinMedianWhereNullWins is COPA's median improvement over CSMA
	// on those same topologies (paper: 45%).
	COPAWinMedianWhereNullWins float64
	// PriceOfFairness is 1 − mean(COPA fair)/mean(COPA).
	PriceOfFairness float64
}

// Headlines derives the §1 statistics from a scenario result containing
// Null, CSMA and COPA columns.
func Headlines(r *ScenarioResult) HeadlineStats {
	var hs HeadlineStats
	null, csma, copa := r.PerTopology[SchemeNull], r.PerTopology[SchemeCSMA], r.PerTopology[SchemeCOPA]
	if len(null) == 0 {
		return hs
	}
	var loseGain, winNull, winCOPA []float64
	lose, loseAndBeat := 0, 0
	for t := range null {
		if null[t] < csma[t] {
			lose++
			if null[t] > 0 {
				loseGain = append(loseGain, copa[t]/null[t]-1)
			}
			if copa[t] > csma[t] {
				loseAndBeat++
			}
		} else if csma[t] > 0 {
			winNull = append(winNull, null[t]/csma[t]-1)
			winCOPA = append(winCOPA, copa[t]/csma[t]-1)
		}
	}
	n := float64(len(null))
	hs.NullLosesToCSMA = float64(lose) / n
	hs.COPAOverNullWhereNullLoses = Mean(loseGain)
	if lose > 0 {
		hs.COPABeatsCSMAWhereNullLoses = float64(loseAndBeat) / float64(lose)
	}
	hs.NullWinMedian = Median(winNull)
	hs.COPAWinMedianWhereNullWins = Median(winCOPA)
	if m := Mean(copa); m > 0 {
		hs.PriceOfFairness = 1 - Mean(r.PerTopology[SchemeCOPAFair])/m
	}
	return hs
}
