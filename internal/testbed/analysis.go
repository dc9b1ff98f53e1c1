package testbed

import (
	"context"

	"copa/internal/campaign"
	"copa/internal/channel"
	"copa/internal/rng"
	"copa/internal/strategy"
)

// PredictionAccuracy quantifies §3.3's observation that foreseeing the
// winning strategy "is not so easy": for every evaluated strategy on
// every topology, it compares the leader's predicted aggregate
// throughput (computed on CSI estimates) with the realized one (computed
// on the true channels) and reports the mean relative error per strategy
// kind — positive bias means the leader oversells the strategy.
type PredictionAccuracy struct {
	// BiasByKind[k] is mean (predicted − realized)/realized.
	BiasByKind map[strategy.Kind]float64
	// MAEByKind[k] is the mean absolute relative error.
	MAEByKind map[strategy.Kind]float64
	// MispickRate is the fraction of topologies where ModeMax's choice
	// (made on predictions) was not the realized-best strategy.
	MispickRate float64
	// MispickCostMean is the mean relative throughput lost on mispicked
	// topologies ((best − chosen)/best).
	MispickCostMean float64
}

// RunPredictionAccuracy evaluates the prediction gap over a 4×2
// testbed. Cancelling ctx aborts between topologies.
func RunPredictionAccuracy(ctx context.Context, seed int64, topologies int) (PredictionAccuracy, error) {
	acc := PredictionAccuracy{
		BiasByKind: make(map[strategy.Kind]float64),
		MAEByKind:  make(map[strategy.Kind]float64),
	}
	counts := make(map[strategy.Kind]int)
	master := rng.New(seed)
	mispicks, mispickCostSum := 0, 0.0
	n := 0
	for t := 0; t < topologies; t++ {
		if err := ctx.Err(); err != nil {
			return acc, err
		}
		src := master.Split(uint64(t))
		dep := channel.NewDeployment(src.Split(1), channel.Scenario4x2)
		ev := strategy.NewEvaluator(dep, channel.DefaultImpairments(), src.Split(2))
		outs, err := ev.EvaluateAll()
		if err != nil {
			return acc, err
		}
		n++
		for k, o := range outs {
			if o.Aggregate() <= 0 {
				continue
			}
			rel := (o.PredictedAggregate() - o.Aggregate()) / o.Aggregate()
			acc.BiasByKind[k] += rel
			if rel < 0 {
				rel = -rel
			}
			acc.MAEByKind[k] += rel
			counts[k]++
		}
		chosen := strategy.Select(strategy.ModeMax, outs)
		var best strategy.Outcome
		for _, k := range []strategy.Kind{strategy.KindCOPASeq, strategy.KindConcBF, strategy.KindConcNull} {
			if o, ok := outs[k]; ok && o.Aggregate() > best.Aggregate() {
				best = o
			}
		}
		if best.Aggregate() > chosen.Aggregate()*1.001 {
			mispicks++
			mispickCostSum += (best.Aggregate() - chosen.Aggregate()) / best.Aggregate()
		}
	}
	for k := range acc.BiasByKind {
		acc.BiasByKind[k] /= float64(counts[k])
		acc.MAEByKind[k] /= float64(counts[k])
	}
	if n > 0 {
		acc.MispickRate = float64(mispicks) / float64(n)
	}
	if mispicks > 0 {
		acc.MispickCostMean = mispickCostSum / float64(mispicks)
	}
	return acc, nil
}

// Robustness is the across-seed stability of a scenario's scheme means:
// the reproduction must not hinge on one lucky testbed draw.
type Robustness struct {
	// MeanOfMeans[scheme] averages the per-seed mean throughputs.
	MeanOfMeans map[string]float64
	// StdOfMeans[scheme] is their standard deviation across seeds.
	StdOfMeans map[string]float64
	Seeds      int
}

// RunSeedRobustness re-runs a scenario with `seeds` different master
// seeds and summarizes the spread of each scheme's mean throughput.
// Cancelling ctx aborts between seeds.
func RunSeedRobustness(ctx context.Context, sc channel.Scenario, base Config, seeds int) (Robustness, error) {
	perScheme := make(map[string][]float64)
	for s := 0; s < seeds; s++ {
		cfg := base
		// Statelessly derived per-replicate seeds: base.Seed + s*1000 would
		// let replicates of nearby base seeds share testbeds.
		cfg.Seed = rng.Derive(base.Seed, domainRobustness, uint64(s))
		res, err := RunScenario(ctx, sc, cfg)
		if err != nil {
			return Robustness{}, err
		}
		for _, scheme := range AllSchemes {
			if col := res.SchemeColumn(campaign.DefaultProfile, 0, scheme); col != nil {
				perScheme[scheme] = append(perScheme[scheme], col.Mean)
			}
		}
	}
	rob := Robustness{
		MeanOfMeans: make(map[string]float64),
		StdOfMeans:  make(map[string]float64),
		Seeds:       seeds,
	}
	for scheme, means := range perScheme {
		rob.MeanOfMeans[scheme] = Mean(means)
		rob.StdOfMeans[scheme] = StdDev(means)
	}
	return rob, nil
}
