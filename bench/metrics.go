package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef is one reported number, named and united exactly as
// BENCHMARK.json lists it. Better is "lower" or "higher". Per-layer
// metrics also name the end-to-end metric and workload each is expected
// to move: a change that claims to improve a layer must show the gain
// there.
type metricDef struct {
	Name, Unit, Better string
	Moves              []move
}

// move is one (end-to-end metric, workload) pairing a layer metric
// feeds.
type move struct{ Metric, Workload string }

// endToEnd are the user-visible metrics every untraced run reports, for
// every workload. "op" is a request for the serving workloads, a
// topology for figure, and a control round (one Tick of every
// controller) for drift; README.md gives each definition.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "p50_ms", Unit: "ms", Better: "lower"},
	{Name: "p99_ms", Unit: "ms", Better: "lower"},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
}

func moves(pairs ...string) []move {
	out := make([]move, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, move{Metric: pairs[i], Workload: pairs[i+1]})
	}
	return out
}

var (
	hotCPU   = moves("cpu_us_per_op", "serve-hot")
	hotTail  = moves("cpu_us_per_op", "serve-hot", "p99_ms", "serve-hot")
	coldCost = moves("cpu_us_per_op", "serve-cold", "p99_ms", "serve-cold")
	coldLat  = moves("p50_ms", "serve-cold", "cpu_us_per_op", "serve-cold")
	figRate  = moves("ops_per_s", "figure")
	driftOps = moves("ops_per_s", "drift", "p50_ms", "drift")
)

// perLayer are the metrics the traced suite reports, grouped by layer
// (the repository's package names).
var perLayer = []metricDef{
	// Load generator: validity of the open loop, not a system cost.
	{Name: "loadgen.lag_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.lag_p99_ms", Unit: "ms", Better: "lower"},

	// api: client-side codec calls and the backend handler's own time.
	{Name: "api.encode_us", Unit: "us", Better: "lower", Moves: hotCPU},
	{Name: "api.decode_us", Unit: "us", Better: "lower", Moves: hotCPU},
	{Name: "api.handler_self_us", Unit: "us", Better: "lower", Moves: hotCPU},

	// router
	{Name: "router.self_us", Unit: "us", Better: "lower", Moves: moves("cpu_us_per_op", "serve-hot", "p50_ms", "serve-hot")},
	{Name: "router.hedges_per_req", Unit: "1/req", Better: "lower", Moves: coldCost},
	{Name: "router.retries_per_req", Unit: "1/req", Better: "lower", Moves: coldCost},
	{Name: "router.shed_frac", Unit: "frac", Better: "lower", Moves: moves("ops_per_s", "serve-cold", "p99_ms", "serve-cold")},

	// serve
	{Name: "serve.cache_hit_frac", Unit: "frac", Better: "higher", Moves: moves("cpu_us_per_op", "serve-hot", "p50_ms", "serve-hot")},
	{Name: "serve.allocate_us", Unit: "us", Better: "lower", Moves: hotCPU},
	{Name: "serve.evals_per_req", Unit: "1/req", Better: "lower", Moves: coldCost},
	{Name: "serve.batch_shared_frac", Unit: "frac", Better: "higher", Moves: coldCost},
	{Name: "serve.inflight_dedup_frac", Unit: "frac", Better: "higher", Moves: coldCost},
	{Name: "serve.queue_ms_p50", Unit: "ms", Better: "lower", Moves: coldCost},
	{Name: "serve.queue_ms_p99", Unit: "ms", Better: "lower", Moves: coldCost},
	{Name: "serve.evaluate_ms_p50", Unit: "ms", Better: "lower", Moves: coldLat},
	{Name: "serve.shed_frac", Unit: "frac", Better: "lower", Moves: moves("ops_per_s", "serve-cold", "p99_ms", "serve-cold")},

	// Evaluation ledger over replayed serve-cold worlds: mean per world.
	{Name: "channel.deploy_ms", Unit: "ms", Better: "lower", Moves: coldLat},
	{Name: "channel.csi_estimate_ms", Unit: "ms", Better: "lower", Moves: coldLat},
	{Name: "strategy.csma_ms", Unit: "ms", Better: "lower", Moves: coldLat},
	{Name: "strategy.copa_seq_ms", Unit: "ms", Better: "lower", Moves: coldLat},
	{Name: "strategy.conc_bf_ms", Unit: "ms", Better: "lower", Moves: coldLat},
	{Name: "strategy.null_ms", Unit: "ms", Better: "lower", Moves: coldLat},
	{Name: "strategy.conc_null_ms", Unit: "ms", Better: "lower", Moves: coldLat},
	{Name: "strategy.self_ms", Unit: "ms", Better: "lower", Moves: coldLat},
	{Name: "precoding.beamform_ms", Unit: "ms", Better: "lower", Moves: coldLat},
	{Name: "precoding.nulling_ms", Unit: "ms", Better: "lower", Moves: coldLat},
	{Name: "power.solve_ms", Unit: "ms", Better: "lower", Moves: coldLat},
	{Name: "power.iters_per_solve", Unit: "count", Better: "lower", Moves: coldLat},
	{Name: "power.equisnr_calls_per_world", Unit: "count", Better: "lower", Moves: coldLat},
	{Name: "ledger.remainder_frac", Unit: "frac", Better: "lower"},

	// Evaluation ledger over a replayed figure topology (COPA + COPA+).
	{Name: "power.mercury_calls_per_topology", Unit: "count", Better: "lower", Moves: figRate},
	{Name: "power.figure_solve_frac", Unit: "frac", Better: "lower", Moves: figRate},
	{Name: "ledger.figure_remainder_frac", Unit: "frac", Better: "lower"},

	// campaign
	{Name: "campaign.unit_s_p50", Unit: "s", Better: "lower", Moves: moves("ops_per_s", "figure", "p50_ms", "figure")},
	{Name: "campaign.worker_busy_frac", Unit: "frac", Better: "higher", Moves: figRate},

	// drift, core, csi: each Tick classified by its Stats delta.
	{Name: "drift.tick_steady_us", Unit: "us", Better: "lower", Moves: driftOps},
	{Name: "drift.tick_incremental_ms", Unit: "ms", Better: "lower", Moves: driftOps},
	{Name: "drift.tick_exchange_ms", Unit: "ms", Better: "lower", Moves: driftOps},
	{Name: "drift.exchanges_per_sim_s", Unit: "1/s", Better: "lower", Moves: driftOps},
	{Name: "drift.incremental_frac", Unit: "frac", Better: "higher", Moves: driftOps},
	{Name: "drift.cert_revocations_per_sim_s", Unit: "1/s", Better: "lower", Moves: driftOps},
	{Name: "core.control_bytes_per_exchange", Unit: "B", Better: "lower", Moves: moves("ops_per_s", "drift")},
	{Name: "csi.delta_bytes_frac", Unit: "frac", Better: "higher", Moves: moves("ops_per_s", "drift")},

	// Go runtime, per serve-hot request on the untraced path.
	{Name: "runtime.allocs_per_op", Unit: "count", Better: "lower", Moves: hotTail},
	{Name: "runtime.bytes_per_op", Unit: "B", Better: "lower", Moves: hotTail},
	{Name: "runtime.gc_cpu_frac", Unit: "frac", Better: "lower", Moves: hotTail},

	// obs: what the traced run itself costs and drops.
	{Name: "obs.trace_overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "obs.spans_lost_frac", Unit: "frac", Better: "lower"},
}

// value is one metric as the result line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// outcome is what a workload (or the traced suite) measured: its
// operation counts, whether every correctness check passed, its metric
// values by name, and side readings that are not benchmark metrics
// (sample counts, generator lag) but belong next to them.
type outcome struct {
	attempted, failed int
	correct           bool
	problems          []string // failed correctness checks
	notes             []string // diagnostics that are not check failures
	values            map[string]float64
	info              map[string]float64
}

func newOutcome() *outcome {
	return &outcome{correct: true, values: map[string]float64{}, info: map[string]float64{}}
}

// fail records a failed correctness check.
func (o *outcome) fail(format string, args ...any) {
	o.correct = false
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// result assembles the result line for defs. Every def must have a
// finite value and nothing else may be set: a missing, extra or
// non-finite metric is a bug in the benchmark, reported as an error.
func (o *outcome) result(defs []metricDef) (result, error) {
	r := result{Correct: o.correct, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		v, ok := o.values[d.Name]
		if !ok {
			return r, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return r, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		r.Metrics[d.Name] = value{Value: v, Unit: d.Unit}
	}
	if len(o.values) != len(defs) {
		var extra []string
		for name := range o.values {
			if _, ok := r.Metrics[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return r, fmt.Errorf("unlisted metrics measured: %v", extra)
	}
	if r.Attempted < 1 {
		return r, fmt.Errorf("no operation was attempted")
	}
	return r, nil
}

// printLines writes one human-readable line per metric and side reading.
func (o *outcome) printLines(w io.Writer, label string, defs []metricDef) {
	for _, d := range defs {
		if v, ok := o.values[d.Name]; ok {
			fmt.Fprintf(w, "%-10s %-34s %14.6g %s\n", label, d.Name, v, d.Unit)
		}
	}
	keys := make([]string, 0, len(o.info))
	for k := range o.info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%-10s %-34s %14.6g (info)\n", label, k, o.info[k])
	}
	for _, n := range o.notes {
		fmt.Fprintf(w, "%-10s note: %s\n", label, n)
	}
	for _, p := range o.problems {
		fmt.Fprintf(w, "%-10s CHECK FAILED: %s\n", label, p)
	}
}

// writeResult prints the result line: one JSON object, last on stdout.
func writeResult(w io.Writer, r result) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
