package campaign

import (
	"fmt"

	"copa/internal/channel"
	"copa/internal/power"
	"copa/internal/precoding"
	"copa/internal/rng"
	"copa/internal/strategy"
)

// Scheme names match the paper's figure legends. They live here so the
// campaign engine and internal/testbed (which aliases them) agree on
// column naming without an import cycle.
const (
	SchemeCSMA     = "CSMA"
	SchemeCOPASeq  = "COPA-SEQ"
	SchemeNull     = "Null" // "Null+SDA" in the overconstrained scenario
	SchemeCOPAFair = "COPA fair"
	SchemeCOPA     = "COPA"
	SchemeCOPAPF   = "COPA+ fair"
	SchemeCOPAP    = "COPA+"
)

// AllSchemes lists scheme names in the paper's presentation order.
var AllSchemes = []string{
	SchemeCSMA, SchemeCOPASeq, SchemeNull,
	SchemeCOPAFair, SchemeCOPA, SchemeCOPAPF, SchemeCOPAP,
}

// EvalOptions tune one topology evaluation.
type EvalOptions struct {
	// MultiDecoder evaluates with per-subcarrier rate selection.
	MultiDecoder bool
	// SkipCOPAPlus disables the mercury/water-filling variants.
	SkipCOPAPlus bool
	// Workspace, when non-nil, is the caller-owned scratch arena every
	// evaluator pass carves from (DESIGN §8: one workspace per
	// goroutine). It is Reset before each pass; outcomes never alias
	// workspace memory, so the scalars extracted here stay valid.
	Workspace *precoding.Workspace
}

// EvaluateTopology runs every scheme on one deployment and returns the
// aggregate (both clients) effective throughput in bits/s per scheme.
// It is the evaluation kernel of every campaign unit, and so of every
// copasim population figure. Checkpoint journals and goldens record its
// outcomes, so the src.Split call sequence is part of the contract — do
// not reorder it.
func EvaluateTopology(dep *channel.Deployment, imp channel.Impairments, src *rng.Source, opt EvalOptions) (map[string]float64, error) {
	out := make(map[string]float64)

	if opt.Workspace != nil {
		opt.Workspace.Reset()
	}
	ev := strategy.NewEvaluator(dep, imp, src.Split(1))
	ev.MultiDecoder = opt.MultiDecoder
	if opt.Workspace != nil {
		ev.UseWorkspace(opt.Workspace)
	}
	outs, err := ev.EvaluateAll()
	if err != nil {
		return nil, fmt.Errorf("evaluate %s: %w", dep, err)
	}
	out[SchemeCSMA] = outs[strategy.KindCSMA].Aggregate()
	out[SchemeCOPASeq] = outs[strategy.KindCOPASeq].Aggregate()
	if o, ok := outs[strategy.KindNull]; ok {
		out[SchemeNull] = o.Aggregate()
	}
	out[SchemeCOPA] = strategy.Select(strategy.ModeMax, outs).Aggregate()
	out[SchemeCOPAFair] = strategy.Select(strategy.ModeFair, outs).Aggregate()

	if !opt.SkipCOPAPlus {
		// COPA+: same pipeline with iterated mercury/water-filling as the
		// inner allocator (§4.2; the paper evaluates it trace-driven for
		// cost, here the closed-form MMSE inverse keeps it to about one
		// more evaluation pass).
		if opt.Workspace != nil {
			opt.Workspace.Reset()
		}
		evp := strategy.NewEvaluator(dep, imp, src.Split(1))
		evp.MultiDecoder = opt.MultiDecoder
		if opt.Workspace != nil {
			evp.UseWorkspace(opt.Workspace)
		}
		evp.Alloc.Inner = power.MercuryBest
		evp.Alloc.MaxIters = 3
		plusOuts, err := evp.EvaluateAll()
		if err != nil {
			return nil, fmt.Errorf("evaluate COPA+ %s: %w", dep, err)
		}
		// COPA+ *adds* the mercury/water-filling allocations to the
		// strategy set COPA selects from (§4.2), so for each mode the
		// choice is whichever of the two pipelines predicts higher.
		pick := func(mode strategy.Mode) float64 {
			base := strategy.Select(mode, outs)
			plus := strategy.Select(mode, plusOuts)
			if plus.PredictedAggregate() > base.PredictedAggregate() {
				return plus.Aggregate()
			}
			return base.Aggregate()
		}
		out[SchemeCOPAP] = pick(strategy.ModeMax)
		out[SchemeCOPAPF] = pick(strategy.ModeFair)
	}
	return out, nil
}

// EvalUnit computes one work unit: every topology in the unit's shard
// range, evaluated under the unit's (profile, age) cell, folded into
// fresh per-column aggregates. Everything it consumes derives
// statelessly from the spec, so any worker computing unit u — on any
// run, after any resume — produces identical bytes. checkCancel is
// polled between topologies so cancellation aborts mid-unit without
// journaling a partial result.
func EvalUnit(spec Spec, u int, ws *precoding.Workspace, checkCancel func() error) (*UnitResult, error) {
	p, age, shard := spec.UnitCoord(u)
	prof := spec.Profiles[p]
	imp := prof.Impairments.Aged(float64(age) / float64(spec.AgeBuckets))
	lo, hi := spec.shardRange(shard)
	res := &UnitResult{Unit: u, Columns: make(map[string]*Column)}
	opt := EvalOptions{
		MultiDecoder: spec.MultiDecoder,
		SkipCOPAPlus: spec.SkipCOPAPlus,
		Workspace:    ws,
	}
	fig9 := p == 0 && age == 0
	for i := lo; i < hi; i++ {
		if err := checkCancel(); err != nil {
			return nil, err
		}
		dep := channel.DeploymentAt(spec.Seed, spec.Scenario, i)
		if spec.InterferenceDeltaDB != 0 {
			dep = dep.ScaleInterference(spec.InterferenceDeltaDB)
		}
		// The evaluation stream depends on the topology index only, so
		// every grid cell sees identical CSI-noise draws — profile/age
		// comparisons are paired.
		src := rng.NewSub(spec.Seed^evalSeedXor, uint64(i))
		out, err := EvaluateTopology(dep, imp, src, opt)
		if err != nil {
			return nil, fmt.Errorf("unit %d topology %d: %w", u, i, err)
		}
		res.AddTopology(prof.Name, age, out)
		if fig9 {
			for j := 0; j < 2; j++ {
				res.col(ColFig9Signal).Add(dep.SignalDBm[j])
				res.col(ColFig9Interference).Add(dep.InterferenceDBm[j])
			}
		}
		mTopologies.Inc()
	}
	return res, nil
}

// Headline columns carry the per-topology pairings behind the paper's
// §1 claims, which no per-scheme aggregate can recover. Each is named
// ColumnName(profile, age, Headline*) and exists only in scenarios with
// a Null column; a conditional column holds one sample per topology in
// its conditioning set.
const (
	// HeadlineNullLoses is 1 where Null < CSMA and 0 elsewhere, on every
	// topology.
	HeadlineNullLoses = "headline/null_loses"
	// HeadlineCOPAOverNull is COPA/Null−1 where Null < CSMA and Null > 0.
	HeadlineCOPAOverNull = "headline/copa_over_null"
	// HeadlineCOPABeatsCSMA is 1 where COPA > CSMA and 0 elsewhere, on
	// the topologies where Null < CSMA.
	HeadlineCOPABeatsCSMA = "headline/copa_beats_csma"
	// HeadlineNullWinEdge is Null/CSMA−1 where Null ≥ CSMA and CSMA > 0.
	HeadlineNullWinEdge = "headline/null_win_edge"
	// HeadlineCOPAWinEdge is COPA/CSMA−1 on the same topologies.
	HeadlineCOPAWinEdge = "headline/copa_win_edge"
)

// AddTopology folds one topology's per-scheme outcomes (as
// EvaluateTopology returns them) into the (profile, age) cell's scheme
// columns and, when the scenario has a Null column, its headline
// columns.
func (r *UnitResult) AddTopology(profile string, age int, out map[string]float64) {
	add := func(name string, v float64) { r.col(ColumnName(profile, age, name)).Add(v) }
	for scheme, v := range out {
		add(scheme, v)
	}
	null, ok := out[SchemeNull]
	if !ok {
		return
	}
	csma, copa := out[SchemeCSMA], out[SchemeCOPA]
	indicator := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	add(HeadlineNullLoses, indicator(null < csma))
	switch {
	case null < csma:
		if null > 0 {
			add(HeadlineCOPAOverNull, copa/null-1)
		}
		add(HeadlineCOPABeatsCSMA, indicator(copa > csma))
	case csma > 0:
		add(HeadlineNullWinEdge, null/csma-1)
		add(HeadlineCOPAWinEdge, copa/csma-1)
	}
}
