package strategy

import "copa/internal/obs"

// slug converts a Kind to a stable metric-name fragment.
func slug(k Kind) string {
	switch k {
	case KindCSMA:
		return "csma"
	case KindCOPASeq:
		return "copa_seq"
	case KindNull:
		return "null"
	case KindConcBF:
		return "conc_bf"
	case KindConcNull:
		return "conc_null"
	}
	return "unknown"
}

// Pre-resolved handles, indexed by Kind (and Mode for selections) so
// the evaluator never builds a metric name at run time.
var (
	evalTimers    [KindConcNull + 1]*obs.Timer
	selectedKinds [2][KindConcNull + 1]*obs.Counter

	// mEvalAllSeconds times one full EvaluateAll pass over a topology.
	mEvalAllSeconds = obs.T("copa.strategy.evaluate_all_seconds")
	// mNullingInfeasible counts topologies where no nulling plan exists.
	mNullingInfeasible = obs.C("copa.strategy.nulling_infeasible")
	// mSelections counts Select invocations across both modes.
	mSelections = obs.C("copa.strategy.selections")
	// mHelperTasks counts strategy tasks EvaluateAll ran on borrowed
	// helper goroutines rather than on the caller's.
	mHelperTasks = obs.C("copa.strategy.helper_tasks")
)

func init() {
	for k := KindCSMA; k <= KindConcNull; k++ {
		evalTimers[k] = obs.T("copa.strategy.eval_seconds." + slug(k))
		for _, m := range []Mode{ModeMax, ModeFair} {
			selectedKinds[m][k] = obs.C("copa.strategy.selected." + m.String() + "." + slug(k))
		}
	}
}
