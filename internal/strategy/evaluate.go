package strategy

import (
	"errors"
	"fmt"
	"time"

	"copa/internal/channel"
	"copa/internal/mac"
	"copa/internal/power"
	"copa/internal/precoding"
	"copa/internal/rng"
)

// Evaluator evaluates every strategy on one topology. Precoders and power
// allocations are always computed from noisy CSI estimates (what the
// leader actually knows); outcomes are then measured both on those
// estimates (Predicted — what the leader decides from) and on the true
// channels (PerClient — what the clients actually experience).
type Evaluator struct {
	// Truth is the physical topology.
	Truth *channel.Deployment
	// Est[i][j] is the estimated channel AP i → client j.
	Est [2][2]*channel.Link
	// Impairments used both for CSI estimation and TX noise.
	Impairments channel.Impairments
	// Alloc configures the power allocation iteration.
	Alloc power.Config
	// Overhead is the MAC overhead model.
	Overhead mac.OverheadModel
	// Coherence is the channel coherence time used to amortize ITS
	// payloads (the paper evaluates with 30 ms).
	Coherence time.Duration
	// MultiDecoder switches throughput prediction to one decoder per
	// subcarrier (Fig. 14).
	MultiDecoder bool

	// tx remembers the transmissions computed for each evaluated
	// strategy, by kind, so a selected outcome can actually be
	// transmitted. A nil pair means the kind was not evaluated.
	tx [KindConcNull + 1][2]*precoding.Transmission

	// ws is the evaluator's scratch arena: SINR evaluation, power
	// allocation, and precoder construction all carve their scratch from
	// it, so repeated evaluations are allocation-free in steady state. It
	// is lazily created. The evaluator stays single-goroutine to its
	// caller (use one Evaluator per goroutine); EvaluateAll may lend its
	// read-only state to helper goroutines, which score strategies on
	// arenas of their own and never touch this one (DESIGN §8).
	ws *precoding.Workspace
	// bf caches SVD beamforming precoders by stream count: CSMA,
	// COPA-SEQ, and ConcBF all beamform from the same estimates, so the
	// SVDs only need to run once. Valid because Est is fixed after
	// construction.
	bf map[int][2]*precoding.Precoder
	// nulls caches the nulling plan and setup per follower designation:
	// KindNull and KindConcNull share precoders and reduced link sets.
	nulls map[int]*nullingState

	// fan is EvaluateAll's task table and result slots. It lives inside
	// the evaluator so fanning a world's strategies out to helpers
	// allocates nothing per evaluation.
	fan fanout
}

// DefaultCoherence is the paper's evaluation setting (§4.1).
const DefaultCoherence = 30 * time.Millisecond

// NewEvaluator estimates CSI for all four links of the deployment and
// returns a ready evaluator. src seeds the CSI measurement noise.
func NewEvaluator(dep *channel.Deployment, imp channel.Impairments, src *rng.Source) *Evaluator {
	ev := &Evaluator{
		Truth:       dep,
		Impairments: imp,
		Alloc:       power.DefaultConfig(),
		Overhead:    mac.DefaultOverheadModel(),
		Coherence:   DefaultCoherence,
	}
	ev.Alloc.Impairments = imp
	// End-to-end evaluation sees stale CSI: the channel has moved on by
	// the time a precoder computed from a measurement hits the air.
	stale := imp.Stale()
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			ev.Est[i][j] = stale.EstimateCSI(src.Split(uint64(i*2+j)), dep.H[i][j])
		}
	}
	return ev
}

// NewEvaluatorFromCSI builds an evaluator for a node that only has channel
// estimates (no ground truth) — the leader AP's situation during an ITS
// exchange. "Truth" is taken to be the estimates themselves, so PerClient
// and Predicted coincide; callers measure realized throughput separately
// once the transmissions meet the physical channel.
func NewEvaluatorFromCSI(sc channel.Scenario, est [2][2]*channel.Link, imp channel.Impairments) *Evaluator {
	dep := &channel.Deployment{Scenario: sc, H: est}
	ev := &Evaluator{
		Truth:       dep,
		Est:         est,
		Impairments: imp,
		Alloc:       power.DefaultConfig(),
		Overhead:    mac.DefaultOverheadModel(),
		Coherence:   DefaultCoherence,
	}
	ev.Alloc.Impairments = imp
	return ev
}

// MeasureOnDeployment measures the effective per-client throughputs a pair
// of transmissions achieves on a ground-truth deployment, with the given
// airtime model. Used to score protocol-negotiated transmissions after
// the fact.
func (ev *Evaluator) MeasureOnDeployment(dep *channel.Deployment, tx [2]*precoding.Transmission, concurrent bool, schemeOverhead float64) [2]float64 {
	l := links{{dep.H[0][0], dep.H[0][1]}, {dep.H[1][0], dep.H[1][1]}}
	return ev.pairThroughputs(l, tx, concurrent, schemeOverhead, false)
}

// UseWorkspace installs a caller-owned scratch arena in place of the
// lazily created private one, so a worker serving many evaluations can
// reuse one arena's chunks across evaluators (internal/serve does this
// per pool worker). DESIGN §8's rules carry over: the workspace stays
// single-goroutine — helper goroutines that EvaluateAll borrows score on
// their own arenas and never touch it — the arena must hold no live
// carves when installed, and the evaluator owns it (including resetting
// it) until the evaluator is discarded. It must be called before the
// first evaluation.
func (ev *Evaluator) UseWorkspace(ws *precoding.Workspace) {
	if ev.ws != nil {
		panic("strategy: UseWorkspace after evaluation started")
	}
	ev.ws = ws
	ev.Alloc.Scratch = ws
}

// workspace returns the evaluator's scratch arena, creating it on first
// use and wiring it into the power-allocation config so every layer of an
// evaluation shares one arena.
func (ev *Evaluator) workspace() *precoding.Workspace {
	if ev.ws == nil {
		ev.ws = &precoding.Workspace{}
		ev.Alloc.Scratch = ev.ws
	}
	return ev.ws
}

// goodput evaluates one client's PHY goodput with the configured decoder
// model. It resets the evaluator workspace, so callers must not hold
// workspace-carved values across a call.
func (ev *Evaluator) goodput(own *channel.Link, tx *precoding.Transmission, cross *channel.Link, crossTx *precoding.Transmission) float64 {
	ws := ev.workspace()
	ws.Reset()
	if ev.MultiDecoder {
		return power.MultiDecoderGoodputForWS(ws, own, tx, cross, crossTx, ev.Alloc.NoisePerSCMW)
	}
	return power.GoodputForWS(ws, own, tx, cross, crossTx, ev.Alloc.NoisePerSCMW)
}

// links is a 2×2 channel set (truth or estimates), possibly with a
// client's antenna shut down.
type links [2][2]*channel.Link

// reduced returns the link set with client f's antenna `shut` removed.
func (l links) reduced(f, shut int) links {
	out := l
	out[0][f] = l[0][f].WithoutRxAntenna(shut)
	out[1][f] = l[1][f].WithoutRxAntenna(shut)
	return out
}

// pairThroughputs measures both clients' effective throughputs for a pair
// of transmissions over a link set. When predicted is true the evaluation
// runs on CSI estimates, and the cross transmission is augmented with the
// expected nulling residual implied by the known CSI error level — a
// leader that scored its nulls against the estimate they were derived
// from would forecast perfect cancellation (§3.3's "not so easy").
func (ev *Evaluator) pairThroughputs(l links, tx [2]*precoding.Transmission, concurrent bool, schemeOverhead float64, predicted bool) [2]float64 {
	share := 1.0
	if !concurrent {
		share = 0.5
	}
	var out [2]float64
	for j := 0; j < 2; j++ {
		var cross *channel.Link
		var crossTx *precoding.Transmission
		if concurrent {
			cross, crossTx = l[1-j][j], tx[1-j]
			if predicted {
				// The leader budgets for the measurement error it knows
				// about plus a partial allowance for aging — it cannot
				// know the actual staleness at transmission time, which
				// is why §3.3 notes predicting the winner "is not so
				// easy". Half the staleness power is the calibrated
				// middle ground.
				errLin := channel.DBToLinear(ev.Impairments.CSIErrorDB) +
					0.5*channel.DBToLinear(ev.Impairments.StalenessDB)
				crossTx = crossTx.WithExpectedResidual(errLin)
			}
		}
		g := ev.goodput(l[j][j], tx[j], cross, crossTx)
		out[j] = effective(g, share, schemeOverhead)
	}
	return out
}

// truthLinks returns the ground-truth link set.
func (ev *Evaluator) truthLinks() links {
	return links{{ev.Truth.H[0][0], ev.Truth.H[0][1]}, {ev.Truth.H[1][0], ev.Truth.H[1][1]}}
}

// estLinks returns the estimated link set.
func (ev *Evaluator) estLinks() links { return ev.Est }

// budgetMW is the per-AP transmit budget for the scenario (one PA per
// antenna).
func (ev *Evaluator) budgetMW() float64 {
	return channel.BudgetForAntennasMW(ev.Truth.Scenario.APAntennas)
}

// equalSplitTx builds status-quo transmissions for the given precoders.
func (ev *Evaluator) equalSplitTx(p [2]*precoding.Precoder) [2]*precoding.Transmission {
	var tx [2]*precoding.Transmission
	for i := 0; i < 2; i++ {
		powers := precoding.EqualSplit(len(ev.Truth.H[0][0].Subcarriers), p[i].Streams, ev.budgetMW())
		tx[i] = precoding.NewTransmission(p[i], powers, ev.Impairments)
	}
	return tx
}

// beamformers builds per-AP SVD beamforming precoders from estimates.
// Results are cached by stream count (Est is fixed after construction),
// so the three beamforming strategies share one SVD pass.
func (ev *Evaluator) beamformers(streams int) ([2]*precoding.Precoder, error) {
	if p, ok := ev.bf[streams]; ok {
		return p, nil
	}
	var p [2]*precoding.Precoder
	ws := ev.workspace()
	for i := 0; i < 2; i++ {
		bf, err := precoding.BeamformingInto(ws, nil, ev.Est[i][i], streams)
		if err != nil {
			return p, err
		}
		p[i] = bf
	}
	if ev.bf == nil {
		ev.bf = make(map[int][2]*precoding.Precoder)
	}
	ev.bf[streams] = p
	return p, nil
}

// remember records the transmissions a strategy was scored with. For
// SDA strategies evaluated under both follower designations it keeps
// the first (the canonical follower-1 assignment): a real exchange
// transmits exactly one of them.
func (ev *Evaluator) remember(kind Kind, tx [2]*precoding.Transmission) {
	if ev.tx[kind][0] == nil {
		ev.tx[kind] = tx
	}
}

// score assembles an Outcome by measuring the same transmissions on
// truth and on estimates. It carves only from the evaluator's arena, so
// lanes may score concurrently.
func (ev *Evaluator) score(kind Kind, concurrent, sda bool, truth, est links, tx [2]*precoding.Transmission, overhead float64) Outcome {
	return Outcome{
		Kind:       kind,
		Concurrent: concurrent,
		SDA:        sda,
		PerClient:  ev.pairThroughputs(truth, tx, concurrent, overhead, false),
		Predicted:  ev.pairThroughputs(est, tx, concurrent, overhead, true),
	}
}

// TransmissionsFor returns the (AP0, AP1) transmissions computed when the
// given outcome's strategy was evaluated. It errors if that strategy has
// not been evaluated on this evaluator.
func (ev *Evaluator) TransmissionsFor(o Outcome) (*precoding.Transmission, *precoding.Transmission, error) {
	if o.Kind < 0 || o.Kind > KindConcNull || ev.tx[o.Kind][0] == nil {
		return nil, nil, fmt.Errorf("strategy: %v was not evaluated", o.Kind)
	}
	pair := ev.tx[o.Kind]
	return pair[0], pair[1], nil
}

// EvaluateCSMA measures the sequential baseline: 802.11n with implicit
// transmit beamforming (as the paper's testbed links achieve — §4.1
// assumes each AP already knows its own client's channel), equal power on
// every subcarrier, senders taking turns. COPA-SEQ differs only by the
// Equi-SINR power allocation and subcarrier selection, which is why the
// paper calls this baseline COPA-SEQ's "starting point".
func (ev *Evaluator) EvaluateCSMA() (Outcome, error) {
	defer evalTimers[KindCSMA].Begin().End()
	p, err := ev.beamformers(ev.Truth.Scenario.Streams)
	if err != nil {
		return Outcome{}, err
	}
	o, tx := ev.csma(p)
	ev.remember(KindCSMA, tx)
	return o, nil
}

// csma scores equal-power beamforming with the senders taking turns.
func (ev *Evaluator) csma(p [2]*precoding.Precoder) (Outcome, [2]*precoding.Transmission) {
	tx := ev.equalSplitTx(p)
	return ev.score(KindCSMA, false, false, ev.truthLinks(), ev.estLinks(), tx, mac.CSMACTSOverhead()), tx
}

// EvaluateCSMADirectMap measures a harsher baseline: stock 802.11n with
// no transmit-side CSI at all (direct-mapped / spatially expanded
// streams). Kept for ablation — the paper's CSMA numbers indicate its
// baseline benefited from implicit beamforming.
func (ev *Evaluator) EvaluateCSMADirectMap() (Outcome, error) {
	sc := ev.Truth.Scenario
	dm := precoding.DirectMap(sc.APAntennas, sc.Streams, len(ev.Truth.H[0][0].Subcarriers))
	tx := ev.equalSplitTx([2]*precoding.Precoder{dm, dm})
	ev.remember(KindCSMA, tx)
	return ev.score(KindCSMA, false, false, ev.truthLinks(), ev.estLinks(), tx, mac.CSMACTSOverhead()), nil
}

// EvaluateCOPASeq measures sequential transmission with per-stream power
// allocation and subcarrier selection.
func (ev *Evaluator) EvaluateCOPASeq() (Outcome, error) {
	defer evalTimers[KindCOPASeq].Begin().End()
	p, err := ev.beamformers(ev.Truth.Scenario.Streams)
	if err != nil {
		return Outcome{}, err
	}
	o, tx := ev.copaSeq(p)
	ev.remember(KindCOPASeq, tx)
	return o, nil
}

// copaSeq scores per-sender Equi-SINR allocation with the senders taking
// turns.
func (ev *Evaluator) copaSeq(p [2]*precoding.Precoder) (Outcome, [2]*precoding.Transmission) {
	var tx [2]*precoding.Transmission
	for i := 0; i < 2; i++ {
		res := power.Sequential(power.SenderCSI{
			Own: ev.Est[i][i], Precoder: p[i], BudgetMW: ev.budgetMW(),
		}, ev.Alloc)
		tx[i] = res.Tx[0]
	}
	oh := ev.Overhead.COPASeqOverhead(ev.Coherence)
	return ev.score(KindCOPASeq, false, false, ev.truthLinks(), ev.estLinks(), tx, oh), tx
}

// EvaluateConcBF measures concurrent transmission with beamforming
// precoders and joint Equi-SINR allocation (no nulling).
func (ev *Evaluator) EvaluateConcBF() (Outcome, error) {
	defer evalTimers[KindConcBF].Begin().End()
	p, err := ev.beamformers(ev.Truth.Scenario.Streams)
	if err != nil {
		return Outcome{}, err
	}
	o, tx := ev.concBF(p)
	ev.remember(KindConcBF, tx)
	return o, nil
}

// concBF scores joint Equi-SINR allocation over beamforming precoders
// with both senders on the air.
func (ev *Evaluator) concBF(p [2]*precoding.Precoder) (Outcome, [2]*precoding.Transmission) {
	res := power.Concurrent([2]power.SenderCSI{
		{Own: ev.Est[0][0], Cross: ev.Est[0][1], Precoder: p[0], BudgetMW: ev.budgetMW()},
		{Own: ev.Est[1][1], Cross: ev.Est[1][0], Precoder: p[1], BudgetMW: ev.budgetMW()},
	}, ev.Alloc)
	tx := [2]*precoding.Transmission{res.Tx[0], res.Tx[1]}
	oh := ev.Overhead.COPAConcOverhead(ev.Coherence)
	return ev.score(KindConcBF, true, false, ev.truthLinks(), ev.estLinks(), tx, oh), tx
}

// ErrNullingInfeasible is returned when no nulling configuration exists
// for the scenario (e.g. single-antenna APs).
var ErrNullingInfeasible = errors.New("strategy: nulling infeasible in this scenario")

// nullingPlan describes a feasible nulling configuration: per-AP stream
// counts, and which client (if any) shuts which antenna.
type nullingPlan struct {
	streams  [2]int
	sdaOn    int // client index with a shut antenna, -1 if none
	shutIdx  int
	overcons bool
}

// planNulling determines how the pair can null (§3.3, §3.4): full-rank if
// the APs have enough antennas; otherwise shut one antenna of the
// follower's client and reduce that AP to the remaining rank.
func (ev *Evaluator) planNulling(follower int) (nullingPlan, error) {
	sc := ev.Truth.Scenario
	full := precoding.NullingDOF(sc.APAntennas, sc.ClientAntennas)
	if full >= sc.Streams {
		return nullingPlan{streams: [2]int{sc.Streams, sc.Streams}, sdaOn: -1}, nil
	}
	if sc.ClientAntennas < 2 {
		mNullingInfeasible.Inc()
		return nullingPlan{}, ErrNullingInfeasible
	}
	// SDA: follower's client drops to ClientAntennas−1 antennas. The
	// leader nulls at the reduced antenna set; the follower sends fewer
	// streams and nulls at the full other client.
	reduced := sc.ClientAntennas - 1
	leaderDOF := precoding.NullingDOF(sc.APAntennas, reduced)
	followerDOF := precoding.NullingDOF(sc.APAntennas, sc.ClientAntennas)
	if leaderDOF < sc.Streams || followerDOF < reduced {
		mNullingInfeasible.Inc()
		return nullingPlan{}, ErrNullingInfeasible
	}
	plan := nullingPlan{sdaOn: follower, overcons: true}
	plan.streams[1-follower] = sc.Streams
	plan.streams[follower] = reduced
	// Shut the antenna with the worse estimated gain from its own AP.
	own := ev.Est[follower][follower]
	worst, worstGain := 0, 1e300
	for r := 0; r < own.NRx(); r++ {
		var g float64
		for k := range own.Subcarriers {
			v := own.Subcarriers[k].Row(r)
			for _, x := range v {
				g += real(x)*real(x) + imag(x)*imag(x)
			}
		}
		if g < worstGain {
			worst, worstGain = r, g
		}
	}
	plan.shutIdx = worst
	return plan, nil
}

// nullingSetup builds nulling precoders and (possibly reduced) link sets
// for a plan.
func (ev *Evaluator) nullingSetup(plan nullingPlan) (truth, est links, p [2]*precoding.Precoder, err error) {
	truth, est = ev.truthLinks(), ev.estLinks()
	if plan.sdaOn >= 0 {
		truth = truth.reduced(plan.sdaOn, plan.shutIdx)
		est = est.reduced(plan.sdaOn, plan.shutIdx)
	}
	ws := ev.workspace()
	for i := 0; i < 2; i++ {
		p[i], err = precoding.NullingInto(ws, nil, est[i][i], est[i][1-i], plan.streams[i])
		if err != nil {
			return truth, est, p, err
		}
	}
	return truth, est, p, nil
}

// nullingState is the cached result of planning and setting up nulling
// for one follower designation.
type nullingState struct {
	plan       nullingPlan
	truth, est links
	p          [2]*precoding.Precoder
	err        error
}

// nullingStateFor returns the (cached) nulling plan and setup for a
// follower designation; infeasibility is cached too.
func (ev *Evaluator) nullingStateFor(follower int) (*nullingState, error) {
	if st, ok := ev.nulls[follower]; ok {
		return st, st.err
	}
	st := &nullingState{}
	st.plan, st.err = ev.planNulling(follower)
	if st.err == nil {
		st.truth, st.est, st.p, st.err = ev.nullingSetup(st.plan)
	}
	if ev.nulls == nil {
		ev.nulls = make(map[int]*nullingState)
	}
	ev.nulls[follower] = st
	return st, st.err
}

// evaluateNullVariant evaluates vanilla nulling (equal power) or COPA
// concurrent nulling (joint allocation) for one follower designation.
func (ev *Evaluator) evaluateNullVariant(kind Kind, follower int) (Outcome, error) {
	st, err := ev.nullingStateFor(follower)
	if err != nil {
		return Outcome{}, err
	}
	o, tx := ev.nullVariant(kind, st)
	ev.remember(kind, tx)
	return o, nil
}

// nullVariant scores one follower designation's nulling state with
// equal power (KindNull) or joint allocation (KindConcNull).
func (ev *Evaluator) nullVariant(kind Kind, st *nullingState) (Outcome, [2]*precoding.Transmission) {
	plan, truth, est, p := st.plan, st.truth, st.est, st.p
	var tx [2]*precoding.Transmission
	if kind == KindNull {
		tx = ev.equalSplitTx(p)
	} else {
		res := power.Concurrent([2]power.SenderCSI{
			{Own: est[0][0], Cross: est[0][1], Precoder: p[0], BudgetMW: ev.budgetMW()},
			{Own: est[1][1], Cross: est[1][0], Precoder: p[1], BudgetMW: ev.budgetMW()},
		}, ev.Alloc)
		tx = [2]*precoding.Transmission{res.Tx[0], res.Tx[1]}
	}
	oh := ev.Overhead.COPAConcOverhead(ev.Coherence)
	return ev.score(kind, true, plan.sdaOn >= 0, truth, est, tx, oh), tx
}

// averageOutcomes merges the two follower designations of an SDA
// strategy: DCF randomness makes each AP lead half the time, so the
// asymmetry cancels in expectation (§3.4).
func averageOutcomes(a, b Outcome) Outcome {
	out := a
	for j := 0; j < 2; j++ {
		out.PerClient[j] = (a.PerClient[j] + b.PerClient[j]) / 2
		out.Predicted[j] = (a.Predicted[j] + b.Predicted[j]) / 2
	}
	return out
}

// EvaluateNulling evaluates KindNull or KindConcNull, averaging over
// follower designations when SDA makes the outcome asymmetric.
func (ev *Evaluator) EvaluateNulling(kind Kind) (Outcome, error) {
	if kind != KindNull && kind != KindConcNull {
		return Outcome{}, errors.New("strategy: EvaluateNulling wants KindNull or KindConcNull")
	}
	defer evalTimers[kind].Begin().End()
	a, err := ev.evaluateNullVariant(kind, 1)
	if err != nil {
		return Outcome{}, err
	}
	if !a.SDA {
		return a, nil
	}
	b, err := ev.evaluateNullVariant(kind, 0)
	if err != nil {
		return a, nil // fall back to the single feasible designation
	}
	return averageOutcomes(a, b), nil
}
