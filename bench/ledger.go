package main

import (
	"fmt"
	"reflect"
	"time"

	"copa/internal/channel"
	"copa/internal/obs"
	"copa/internal/power"
	"copa/internal/precoding"
	"copa/internal/rng"
	"copa/internal/strategy"
)

// The evaluation ledger: one world's evaluation, replayed stage by stage
// through the evaluator's public methods in EvaluateAll's order, timed
// from outside. The power layer's share comes from its own timer
// (copa.power.alloc_seconds); precoder construction is timed by calling
// BeamformingInto/NullingInto on the evaluator's CSI estimates. The
// replay must reproduce a fresh EvaluateAll bit for bit, and the stages
// are reported against EvaluateAll's own time with the unexplained
// remainder.

// The power layer's exported instruments (registered by package power).
var (
	powerAllocSeconds = obs.T("copa.power.alloc_seconds")
	powerAllocIters   = obs.H("copa.power.alloc_iters", nil)
	powerEquiSNR      = obs.C("copa.power.equisnr_calls")
	powerMercury      = obs.C("copa.power.mercury_calls")
)

type powerReading struct {
	solveSec, itersSum float64
	solves             uint64
	equisnr, mercury   uint64
}

func readPower() powerReading {
	a, it := powerAllocSeconds.Value(), powerAllocIters.Value()
	return powerReading{
		solveSec: a.Sum,
		itersSum: it.Sum,
		solves:   it.Count,
		equisnr:  powerEquiSNR.Value(),
		mercury:  powerMercury.Value(),
	}
}

// world rebuilds one evaluation's inputs: the deployment and the stream
// that draws its CSI-estimation noise.
type world func() (*channel.Deployment, *rng.Source)

// serveWorld is the world serve builds for a static request of this
// scenario and seed (serve.evaluateWorld's derivation).
func serveWorld(sc channel.Scenario, seed int64) world {
	return func() (*channel.Deployment, *rng.Source) {
		src := rng.New(seed)
		dep := channel.NewDeployment(src.Split(1), sc)
		return dep, src.Split(2)
	}
}

// ledger accumulates replayed worlds.
type ledger struct {
	worlds, nullWorlds int
	stageSec           map[string]float64
	allSec             float64 // fresh EvaluateAll time
	power              powerReading
}

func newLedger() *ledger { return &ledger{stageSec: map[string]float64{}} }

// timed runs f and adds its duration to stage.
func (l *ledger) timed(stage string, f func()) {
	t0 := time.Now()
	f()
	l.stageSec[stage] += time.Since(t0).Seconds()
}

// configure applies the pass's allocator: the default Equi-SNR inner
// step, or COPA+'s iterated mercury/water-filling as
// campaign.EvaluateTopology sets it.
func configure(ev *strategy.Evaluator, plus bool) {
	if plus {
		ev.Alloc.Inner = power.MercuryBest
		ev.Alloc.MaxIters = 3
	}
}

var strategyStages = []string{"strategy.csma", "strategy.copa_seq", "strategy.conc_bf", "strategy.null", "strategy.conc_null"}

// replay evaluates w once fresh and once stage by stage, and reports an
// error if the two disagree in any bit.
func (l *ledger) replay(sc channel.Scenario, imp channel.Impairments, w world, plus bool) error {
	dep, noise := w()
	ref := strategy.NewEvaluator(dep, imp, noise)
	configure(ref, plus)
	t0 := time.Now()
	want, err := ref.EvaluateAll()
	l.allSec += time.Since(t0).Seconds()
	if err != nil {
		return fmt.Errorf("EvaluateAll: %w", err)
	}

	var ev *strategy.Evaluator
	l.timed("channel.deploy", func() { dep, noise = w() })
	l.timed("channel.csi_estimate", func() { ev = strategy.NewEvaluator(dep, imp, noise) })
	configure(ev, plus)

	ws := &precoding.Workspace{}
	var perr error
	l.timed("precoding.beamform", func() {
		for i := 0; i < 2 && perr == nil; i++ {
			_, perr = precoding.BeamformingInto(ws, nil, ev.Est[i][i], sc.Streams)
		}
	})
	// Full-rank nulling only: the overconstrained SDA plan is chosen
	// inside the evaluator, so 3x2's nulling stays in strategy self time.
	if precoding.NullingDOF(sc.APAntennas, sc.ClientAntennas) >= sc.Streams {
		l.nullWorlds++
		l.timed("precoding.nulling", func() {
			for i := 0; i < 2 && perr == nil; i++ {
				_, perr = precoding.NullingInto(ws, nil, ev.Est[i][i], ev.Est[i][1-i], sc.Streams)
			}
		})
	}
	if perr != nil {
		return fmt.Errorf("precoders: %w", perr)
	}

	p0 := readPower()
	got := map[strategy.Kind]strategy.Outcome{}
	steps := []struct {
		kind strategy.Kind
		eval func() (strategy.Outcome, error)
	}{
		{strategy.KindCSMA, ev.EvaluateCSMA},
		{strategy.KindCOPASeq, ev.EvaluateCOPASeq},
		{strategy.KindConcBF, ev.EvaluateConcBF},
		{strategy.KindNull, func() (strategy.Outcome, error) { return ev.EvaluateNulling(strategy.KindNull) }},
		{strategy.KindConcNull, func() (strategy.Outcome, error) { return ev.EvaluateNulling(strategy.KindConcNull) }},
	}
	for i, st := range steps {
		var o strategy.Outcome
		var err error
		l.timed(strategyStages[i], func() { o, err = st.eval() })
		switch {
		case err == nil:
			got[st.kind] = o
		case st.kind != strategy.KindNull && st.kind != strategy.KindConcNull:
			// EvaluateAll fails on these too; infeasible nulling is absent.
			return fmt.Errorf("%v: %w", st.kind, err)
		}
	}
	p1 := readPower()
	l.power.solveSec += p1.solveSec - p0.solveSec
	l.power.itersSum += p1.itersSum - p0.itersSum
	l.power.solves += p1.solves - p0.solves
	l.power.equisnr += p1.equisnr - p0.equisnr
	l.power.mercury += p1.mercury - p0.mercury
	l.worlds++
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("replayed outcomes %+v differ from EvaluateAll's %+v", got, want)
	}
	return nil
}

// strategySec is the replay's total time in the strategy methods.
func (l *ledger) strategySec() float64 {
	var s float64
	for _, st := range strategyStages {
		s += l.stageSec[st]
	}
	return s
}

// remainderFrac is the share of EvaluateAll's time the replayed stages
// do not account for.
func (l *ledger) remainderFrac() float64 {
	if l.allSec <= 0 {
		return 0
	}
	return (l.allSec - l.strategySec()) / l.allSec
}

// report stores the per-world stage metrics.
func (l *ledger) report(o *outcome) {
	perWorld := func(sec float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return sec * 1e3 / float64(n)
	}
	for _, st := range append([]string{"channel.deploy", "channel.csi_estimate", "precoding.beamform"}, strategyStages...) {
		o.values[st+"_ms"] = perWorld(l.stageSec[st], l.worlds)
	}
	o.values["precoding.nulling_ms"] = perWorld(l.stageSec["precoding.nulling"], l.nullWorlds)
	o.values["power.solve_ms"] = perWorld(l.power.solveSec, l.worlds)
	self := l.strategySec() - l.power.solveSec - l.stageSec["precoding.beamform"] - l.stageSec["precoding.nulling"]
	o.values["strategy.self_ms"] = perWorld(self, l.worlds)
	iters := 0.0
	if l.power.solves > 0 {
		iters = l.power.itersSum / float64(l.power.solves)
	}
	o.values["power.iters_per_solve"] = iters
	o.values["power.equisnr_calls_per_world"] = float64(l.power.equisnr) / float64(max(l.worlds, 1))
	o.values["ledger.remainder_frac"] = l.remainderFrac()
	o.info["ledger.worlds"] = float64(l.worlds)
	o.info["ledger.evaluate_all_ms"] = perWorld(l.allSec, l.worlds)
}
