// Package obs is the COPA pipeline's stdlib-only observability layer:
// an allocation-free metrics registry (atomic counters, gauges and
// fixed-bucket histograms/timers), a hierarchical span tracer with
// ring-buffer retention and W3C-style propagation, and a
// log/slog-based structured logger.
//
// Spans are recorded only under a sampled trace. Transport edges and
// CLI mains root one with StartSpan; library code records a stage with
// ChildSpan, which returns a nil span — a free, allocation-less no-op —
// when the caller's context carries no trace.
//
// The design is handle-based: instrumented packages resolve their
// metrics once at package init
//
//	var mCalls = obs.C("copa.power.equisnr_calls")
//
// and the hot path touches only the pre-resolved handle — one atomic
// add, no map lookups, no allocations. A global gate (SetEnabled /
// Disabled) turns every update into a predictable branch so the
// instrumented and uninstrumented hot paths stay within noise of each
// other (see BenchmarkEquiSNRObservability).
//
// All handles are nil-safe: methods on a nil *Counter, *Gauge,
// *Histogram, *Timer, *Tracer or *Registry are no-ops, so optional
// instrumentation never needs nil checks at the call site.
package obs

import "sync/atomic"

// gate is the global instrumentation switch. It defaults to on: the
// registry is designed to be cheap enough to leave enabled in
// production.
var gate atomic.Bool

func init() { gate.Store(true) }

// Enabled reports whether metric and trace collection is on.
func Enabled() bool { return gate.Load() }

// SetEnabled turns all metric updates and span recording on or off
// globally. Reads (Value, Snapshot) keep working either way.
func SetEnabled(on bool) { gate.Store(on) }

// Disabled switches instrumentation off and returns a func restoring
// the previous state — for benchmarking the uninstrumented baseline:
//
//	defer obs.Disabled()()
func Disabled() (restore func()) {
	prev := gate.Swap(false)
	return func() { gate.Store(prev) }
}

// def is the process-wide default registry every copa.* metric lives in.
var def = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return def }

// C returns (creating if needed) a counter in the default registry.
func C(name string) *Counter { return def.Counter(name) }

// G returns (creating if needed) a gauge in the default registry.
func G(name string) *Gauge { return def.Gauge(name) }

// H returns (creating if needed) a histogram in the default registry.
// Bounds must be ascending; they are only used on first creation.
func H(name string, bounds []float64) *Histogram { return def.Histogram(name, bounds) }

// T returns (creating if needed) a timer in the default registry.
func T(name string) *Timer { return def.Timer(name) }

// defTracer is the process-wide span tracer (most recent 1024 spans).
var defTracer = NewTracer(1024)

// Tracing returns the process-wide tracer.
func Tracing() *Tracer { return defTracer }
