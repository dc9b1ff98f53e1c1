// Package copa is a simulator-backed reproduction of COPA — CoOperative
// Power Allocation for interfering wireless networks (CoNEXT 2015).
//
// COPA lets two Wi-Fi APs owned by different parties coordinate over the
// air: they exchange channel state in ITS control frames, null toward one
// another's clients, and cooperatively allocate per-subcarrier transmit
// power — dropping hopeless subcarriers outright — so that concurrent
// transmission beats taking turns.
//
// The package re-exports the user-facing surface of the internal
// implementation:
//
//   - topology & channel generation (the simulated indoor testbed),
//   - the strategy evaluator (CSMA / COPA-SEQ / nulling / concurrent
//     variants, max and incentive-compatible selection),
//   - the power allocators (Equi-SNR, Equi-SINR, mercury/water-filling),
//   - the over-the-air ITS protocol between two AP instances,
//   - the experiment harness that regenerates every figure and table in
//     the paper's evaluation.
//
// See the examples/ directory for runnable walk-throughs and cmd/copasim
// for the full evaluation CLI.
package copa

import (
	"context"
	"io"
	"log/slog"
	"time"

	"copa/internal/campaign"
	"copa/internal/channel"
	"copa/internal/core"
	"copa/internal/csi"
	"copa/internal/drift"
	"copa/internal/mac"
	"copa/internal/obs"
	"copa/internal/power"
	"copa/internal/precoding"
	"copa/internal/rng"
	"copa/internal/serve"
	"copa/internal/strategy"
	"copa/internal/testbed"
)

// Rand is the deterministic, splittable random source every simulator
// component draws from; the same seed always reproduces the same world.
type Rand = rng.Source

// NewRand returns a seeded random source.
func NewRand(seed int64) *Rand { return rng.New(seed) }

// Scenario is an antenna configuration (1x1, 4x2, 3x2).
type Scenario = channel.Scenario

// The paper's three evaluation scenarios.
var (
	Scenario1x1 = channel.Scenario1x1
	Scenario4x2 = channel.Scenario4x2
	Scenario3x2 = channel.Scenario3x2
)

// Deployment is one concrete two-AP/two-client topology with all its
// frequency-selective channels.
type Deployment = channel.Deployment

// Link is a frequency-selective MIMO channel.
type Link = channel.Link

// Impairments model the radio hardware (CSI error, TX EVM, staleness).
type Impairments = channel.Impairments

// DefaultImpairments returns the WARP-class calibration used throughout
// the paper reproduction.
func DefaultImpairments() Impairments { return channel.DefaultImpairments() }

// PerfectHardware disables all impairments (idealized nulling).
func PerfectHardware() Impairments { return channel.PerfectHardware() }

// NewDeployment draws one topology for a scenario from the given seed.
func NewDeployment(seed int64, sc Scenario) *Deployment {
	return channel.NewDeployment(rng.New(seed), sc)
}

// GenerateTestbed draws a deterministic population of topologies.
func GenerateTestbed(seed int64, sc Scenario, n int) []*Deployment {
	return channel.GenerateTestbed(seed, sc, n)
}

// Strategy kinds and selection modes.
type (
	// StrategyKind identifies a medium-access strategy (CSMA, COPA-SEQ,
	// vanilla nulling, concurrent beamforming, concurrent nulling).
	StrategyKind = strategy.Kind
	// Mode selects between throughput-maximizing and incentive-compatible
	// ("fair") strategy choice.
	Mode = strategy.Mode
	// Outcome is one strategy's evaluation on one topology.
	Outcome = strategy.Outcome
	// Evaluator runs every strategy on a topology.
	Evaluator = strategy.Evaluator
)

// Strategy kind and mode constants.
const (
	KindCSMA     = strategy.KindCSMA
	KindCOPASeq  = strategy.KindCOPASeq
	KindNull     = strategy.KindNull
	KindConcBF   = strategy.KindConcBF
	KindConcNull = strategy.KindConcNull

	ModeMax  = strategy.ModeMax
	ModeFair = strategy.ModeFair
)

// NewEvaluator builds an evaluator for a deployment: CSI is estimated
// with the impairment model, then every strategy can be scored on both
// the estimates (what an AP would predict) and the true channels.
func NewEvaluator(dep *Deployment, imp Impairments, seed int64) *Evaluator {
	return strategy.NewEvaluator(dep, imp, rng.New(seed))
}

// Select applies COPA's decision rule over evaluated outcomes.
func Select(mode Mode, outcomes map[StrategyKind]Outcome) Outcome {
	return strategy.Select(mode, outcomes)
}

// AP-level protocol types: COPA APs exchanging real ITS frames.
type (
	// AP is a COPA access point with its CSI cache and strategy policy.
	AP = core.AP
	// Pair wires two APs to a physical deployment for simulation.
	Pair = core.Pair
	// Session is the result of one ITS exchange.
	Session = core.Session
	// Cluster simulates >2 APs sharing the medium (§3.1 fairness).
	Cluster = core.Cluster
	// ClusterStats aggregates cluster rounds.
	ClusterStats = core.ClusterStats
	// ScheduleConfig drives a time-domain simulation with drifting
	// channels and periodic CSI refresh.
	ScheduleConfig = core.ScheduleConfig
	// ScheduleResult summarizes a schedule run.
	ScheduleResult = core.ScheduleResult
	// MultiDeployment is an n-pair topology for cluster simulations.
	MultiDeployment = channel.MultiDeployment
)

// NewPair builds two COPA APs on a deployment.
func NewPair(dep *Deployment, imp Impairments, coherence time.Duration, mode Mode, seed int64) *Pair {
	return core.NewPair(dep, imp, coherence, mode, rng.New(seed))
}

// NewMultiDeployment draws n AP/client pairs on the office floor.
func NewMultiDeployment(seed int64, sc Scenario, n int) (*MultiDeployment, error) {
	return channel.NewMultiDeployment(rng.New(seed), sc, n)
}

// NewCluster builds n COPA APs over a multi-pair deployment.
func NewCluster(dep *MultiDeployment, imp Impairments, coherence time.Duration, mode Mode, seed int64) *Cluster {
	return core.NewCluster(dep, imp, coherence, mode, rng.New(seed))
}

// Power allocation API.
type (
	// Allocation is a per-subcarrier power assignment for one stream.
	Allocation = power.Allocation
	// AllocConfig parameterizes the Equi-SINR iteration.
	AllocConfig = power.Config
)

// Power allocators (see internal/power for details).
var (
	// EquiSNR is Algorithm 1: drop the worst subcarriers, equalize the
	// rest, keep the throughput-maximizing drop count.
	EquiSNR = power.EquiSNR
	// Waterfill is classic Gaussian-input waterfilling.
	Waterfill = power.Waterfill
	// MercuryWaterfill is the discrete-constellation optimum.
	MercuryWaterfill = power.MercuryWaterfill
	// MercuryBest picks the best constellation's mercury/WF allocation.
	MercuryBest = power.MercuryBest
)

// Precoding API.
type (
	// Precoder holds per-subcarrier precoding matrices.
	Precoder = precoding.Precoder
	// Transmission couples a precoder with a power allocation.
	Transmission = precoding.Transmission
)

// Precoder builders.
var (
	// Beamforming builds SVD transmit beamforming toward a client.
	Beamforming = precoding.Beamforming
	// Nulling beamforms within the nullspace of the victim's channel.
	Nulling = precoding.Nulling
)

// ErrOverconstrained is returned when nulling lacks spatial degrees of
// freedom (§3.4); shut-down-antenna rank reduction is the remedy.
var ErrOverconstrained = precoding.ErrOverconstrained

// CSI compression (adaptive delta modulation + DEFLATE).
var (
	// EncodeCSI compresses a channel estimate for an ITS REQ payload.
	EncodeCSI = csi.EncodeLink
	// DecodeCSI reverses EncodeCSI.
	DecodeCSI = csi.DecodeLink
)

// MAC layer: ITS frames, overheads, contention.
type (
	// OverheadModel computes Table 1's MAC overhead fractions.
	OverheadModel = mac.OverheadModel
	// DCF is the multi-station contention simulator.
	DCF = mac.DCF
)

// DefaultOverheadModel mirrors the paper's 4×2 setting.
func DefaultOverheadModel() OverheadModel { return mac.DefaultOverheadModel() }

// Experiment harness: regenerate the paper's evaluation.
type (
	// ExperimentConfig parameterizes a scenario run.
	ExperimentConfig = testbed.Config
	// ScenarioResult is a scenario run's merged aggregates: per scheme,
	// a column of Moments and a quantile Sketch, named
	// "<ScenarioProfile>/age0/<scheme>".
	ScenarioResult = campaign.Result
)

// ScenarioProfile names the one impairment profile of a RunScenario
// result (pass it, with age 0, to Headlines and SchemeColumn).
const ScenarioProfile = campaign.DefaultProfile

// Scheme names as used in the paper's figure legends.
const (
	SchemeCSMA     = testbed.SchemeCSMA
	SchemeCOPASeq  = testbed.SchemeCOPASeq
	SchemeNull     = testbed.SchemeNull
	SchemeCOPAFair = testbed.SchemeCOPAFair
	SchemeCOPA     = testbed.SchemeCOPA
	SchemeCOPAPF   = testbed.SchemeCOPAPF
	SchemeCOPAP    = testbed.SchemeCOPAP
)

// Mean returns the arithmetic mean of a raw sample slice (0 for empty
// input). A ScenarioResult's per-scheme means are its columns' Moments.
var Mean = testbed.Mean

// CoherenceTime returns tc = m·λ/v for a host speed in m/s (§3.1).
var CoherenceTime = channel.CoherenceTime

// NullingDOF returns how many streams a sender can transmit while nulling
// at a victim's antennas (§3.4).
var NullingDOF = precoding.NullingDOF

// Observability: every layer of the pipeline records counters, latency
// histograms, and spans into a process-wide registry (see internal/obs).
// Instrumentation is on by default and costs one atomic op per event;
// SetMetricsEnabled(false) turns it into a predictable no-op branch.
type (
	// MetricsSnapshot is a point-in-time copy of every registered metric.
	// It is internally consistent per histogram: Count always equals the
	// sum of the bucket counts.
	MetricsSnapshot = obs.Snapshot
	// HistogramValue is one histogram's snapshot, with Mean and Quantile
	// helpers.
	HistogramValue = obs.HistogramValue
	// SpanRecord is one finished trace span from the in-process ring.
	SpanRecord = obs.SpanRecord
)

// Metrics captures the current value of every copa.* metric.
func Metrics() MetricsSnapshot { return obs.Default().Snapshot() }

// Snapshot is an alias for Metrics.
func Snapshot() MetricsSnapshot { return Metrics() }

// SetMetricsEnabled toggles all instrumentation (metrics, timers, spans).
func SetMetricsEnabled(on bool) { obs.SetEnabled(on) }

// MetricsEnabled reports whether instrumentation is active.
func MetricsEnabled() bool { return obs.Enabled() }

// RecentSpans returns up to n most recent spans of traced operations,
// newest first (n <= 0 returns all retained spans). Library calls record
// spans only under a caller's sampled trace; opt in with StartSpan.
func RecentSpans(n int) []SpanRecord { return obs.Tracing().Recent(n) }

// Distributed tracing: hierarchical request-scoped spans propagated
// through context.Context, across HTTP (traceparent header) and ITS
// frames (binary trace context). See internal/obs for the model.
type (
	// TraceSpan is an open hierarchical span; End/EndErr record it.
	TraceSpan = obs.ActiveSpan
	// TraceSpanContext is a span's wire identity (trace ID, span ID,
	// sampling decision).
	TraceSpanContext = obs.SpanContext
)

// StartSpan opens a span: a child when ctx already carries a sampled
// trace, otherwise a new root subject to the sampling rate. The
// returned context carries the span for downstream StartSpan calls.
func StartSpan(ctx context.Context, name string) (context.Context, *TraceSpan) {
	return obs.StartSpan(ctx, name)
}

// TraceSpans returns every retained span of one trace, oldest first.
func TraceSpans(traceID string) []SpanRecord { return obs.Tracing().TraceSpans(traceID) }

// SetTraceSampling sets the fraction of new root traces that record
// hierarchical spans (clamped to [0,1]; remote decisions always win).
func SetTraceSampling(rate float64) { obs.SetTraceSampling(rate) }

// WriteOpenMetrics renders a metrics snapshot in OpenMetrics text
// format (the Prometheus exposition served on /metrics).
func WriteOpenMetrics(w io.Writer, s MetricsSnapshot) error { return obs.WriteOpenMetrics(w, s) }

// WriteTraceJSON dumps every retained span as a JSON array, oldest
// first (the CLIs' -trace-out format).
func WriteTraceJSON(w io.Writer) error { return obs.Tracing().WriteJSON(w) }

// ServeDebug starts an HTTP listener exposing /debug/vars (expvar with
// live copa.* metrics), /debug/metrics, /debug/spans, and /debug/pprof.
// It returns the bound address and a shutdown function.
func ServeDebug(addr string) (string, func(), error) { return obs.ServeDebug(addr) }

// Logger returns the process-wide structured logger the simulator logs
// progress through.
func Logger() *slog.Logger { return obs.Logger() }

// SetVerbose switches the logger between Info (false) and Debug (true).
func SetVerbose(on bool) { obs.SetVerbose(on) }

// Serving layer: allocation-as-a-service on top of the evaluator
// (cmd/copaserve is the HTTP daemon built on this API).
type (
	// Server is a pooled, caching allocation service with
	// admission control and graceful drain (see internal/serve).
	Server = serve.Server
	// ServerConfig sizes the worker pool, queue and cache.
	ServerConfig = serve.Config
	// AllocateRequest names the world to evaluate: scenario, seed, mode,
	// impairments and CSI age.
	AllocateRequest = serve.Request
	// AllocateResult is the selected outcome plus every strategy's score.
	AllocateResult = serve.Result
	// ServerStats is a point-in-time view of queue and cache occupancy.
	ServerStats = serve.Stats
)

// Serving-layer sentinel errors, usable with errors.Is.
var (
	// ErrQueueFull is returned when admission control sheds a request.
	ErrQueueFull = serve.ErrQueueFull
	// ErrServerClosed is returned once the server is draining or closed.
	ErrServerClosed = serve.ErrServerClosed
	// ErrExpired is returned when a request's own deadline passed before
	// its world was evaluated.
	ErrExpired = serve.ErrExpired
)

// NewServer starts an allocation service with the given configuration;
// zero fields take defaults from DefaultServerConfig.
func NewServer(cfg ServerConfig) *Server { return serve.New(cfg) }

// DefaultServerConfig returns the serving defaults: one worker per CPU,
// a 64-deep queue and a 1024-entry result cache.
func DefaultServerConfig() ServerConfig { return serve.DefaultConfig() }

// Mobility subsystem (DESIGN §14): time-evolving channels plus the
// online incremental re-allocation controller.
type (
	// DriftConfig parameterizes the online re-allocation controller.
	DriftConfig = drift.Config
	// DriftController runs the drift detector + re-allocation loop over
	// one evolving AP pair.
	DriftController = drift.Controller
	// DriftStats accumulates what a controller run did.
	DriftStats = drift.Stats
	// MobilityProfile is a named mobility speed (Static, Pedestrian,
	// Vehicular).
	MobilityProfile = drift.Profile
)

var (
	// NewDriftController builds a controller over a deployment.
	NewDriftController = drift.NewController
	// DefaultDriftConfig returns the standard controller settings.
	DefaultDriftConfig = drift.DefaultConfig
	// Pedestrian and Vehicular are the standard mobility profiles.
	Pedestrian = drift.Pedestrian
	Vehicular  = drift.Vehicular
	// RunMobilitySweep runs the controller over a (threshold, speed,
	// topology) grid — the realized-throughput-vs-speed figure.
	RunMobilitySweep = testbed.RunMobilitySweep
	// DefaultMobilityConfig sizes the sweep to run in seconds.
	DefaultMobilityConfig = testbed.DefaultMobilityConfig
)

// Experiment entry points (one per paper artifact).
var (
	// RunScenario evaluates all schemes over a topology population
	// (Figs. 10–13 with the appropriate scenario and interference).
	RunScenario = testbed.RunScenario
	// DefaultExperimentConfig mirrors the paper: 30 topologies.
	DefaultExperimentConfig = testbed.DefaultConfig
	// Headlines computes the §1 claims of a 4×2 run's (profile, age)
	// cell.
	Headlines = testbed.Headlines
	// RunFigure2 .. RunFigure14 regenerate the micro-measurements.
	RunFigure2  = testbed.RunFigure2
	RunFigure3  = testbed.RunFigure3
	RunFigure4  = testbed.RunFigure4
	RunFigure7  = testbed.RunFigure7
	RunFigure9  = testbed.RunFigure9
	RunFigure14 = testbed.RunFigure14
	// Table1 computes the MAC overhead table.
	Table1 = testbed.Table1
)
