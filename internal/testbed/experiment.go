package testbed

import (
	"context"
	"math"

	"copa/internal/campaign"
	"copa/internal/channel"
	"copa/internal/obs"
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

// RunScenario evaluates all schemes over a population of topologies
// as a one-cell campaign: cfg.Impairments under campaign.DefaultProfile,
// fresh CSI (age bucket 0), one topology per work unit, no journal, and
// cfg.MaxParallel workers. The result is deterministic per (seed,
// scenario) and byte-identical to copacampaign's for the same spec.
// Cancelling ctx aborts the run between topologies and returns
// ctx.Err(); results computed so far are discarded (a partial
// population would bias every aggregate).
func RunScenario(ctx context.Context, sc channel.Scenario, cfg Config) (*campaign.Result, error) {
	spec := campaign.Spec{
		Seed:                cfg.Seed,
		Scenario:            sc,
		Topologies:          cfg.Topologies,
		Shards:              cfg.Topologies,
		Profiles:            []campaign.Profile{{Name: campaign.DefaultProfile, Impairments: cfg.Impairments}},
		AgeBuckets:          1,
		InterferenceDeltaDB: cfg.InterferenceDeltaDB,
		SkipCOPAPlus:        cfg.SkipCOPAPlus,
		MultiDecoder:        cfg.MultiDecoder,
	}
	return campaign.Run(ctx, spec, campaign.Options{
		Workers: cfg.MaxParallel,
		OnProgress: func(done, total int) {
			obs.Logger().Debug("topology evaluated", "scenario", sc.Name, "seed", cfg.Seed, "done", done, "total", total)
		},
	})
}

// HeadlineStats computes the paper's §1 claims from a 4×2 scenario run:
// how often vanilla nulling loses to CSMA, COPA's improvement over nulling
// on those topologies, and how often COPA then beats CSMA. A statistic
// whose conditioning set is empty (no topology where Null wins, say) is
// NaN, not 0.
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
	// wins (paper: 12%), read off the column's sketch.
	NullWinMedian float64
	// COPAWinMedianWhereNullWins is COPA's median improvement over CSMA
	// on those same topologies (paper: 45%).
	COPAWinMedianWhereNullWins float64
	// PriceOfFairness is 1 − mean(COPA fair)/mean(COPA).
	PriceOfFairness float64
}

// Headlines derives the §1 statistics of one (profile, age) cell from
// the headline columns campaign.EvalUnit builds per topology.
func Headlines(res *campaign.Result, profile string, age int) HeadlineStats {
	col := func(name string) *campaign.Column {
		if c := res.SchemeColumn(profile, age, name); c != nil {
			return c
		}
		return campaign.NewColumn()
	}
	mean := func(name string) float64 {
		if c := col(name); c.N > 0 {
			return c.Mean
		}
		return math.NaN()
	}
	median := func(name string) float64 { return col(name).Sketch.Quantile(0.5) }
	hs := HeadlineStats{
		NullLosesToCSMA:             mean(campaign.HeadlineNullLoses),
		COPAOverNullWhereNullLoses:  mean(campaign.HeadlineCOPAOverNull),
		COPABeatsCSMAWhereNullLoses: mean(campaign.HeadlineCOPABeatsCSMA),
		NullWinMedian:               median(campaign.HeadlineNullWinEdge),
		COPAWinMedianWhereNullWins:  median(campaign.HeadlineCOPAWinEdge),
		PriceOfFairness:             math.NaN(),
	}
	if m := mean(SchemeCOPA); m > 0 {
		hs.PriceOfFairness = 1 - mean(SchemeCOPAFair)/m
	}
	return hs
}
