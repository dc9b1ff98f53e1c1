// Package cliflags holds the flag parsing every copa command shares:
// scenario/mode/impairments name mapping, the conventional -seed flag,
// and the -v/-debug-addr operational pair. The name→value mappings are
// exported as plain parse functions too, because copaserve accepts the
// same names over HTTP/JSON.
package cliflags

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"copa/internal/channel"
	"copa/internal/obs"
	"copa/internal/strategy"
)

// ParseScenario maps a scenario name ("1x1", "4x2", "3x2") to its
// antenna configuration.
func ParseScenario(name string) (channel.Scenario, error) {
	switch name {
	case "1x1":
		return channel.Scenario1x1, nil
	case "4x2":
		return channel.Scenario4x2, nil
	case "3x2":
		return channel.Scenario3x2, nil
	}
	return channel.Scenario{}, fmt.Errorf("unknown scenario %q (want 1x1, 4x2, 3x2)", name)
}

// ParseMode maps a selection-mode name ("max", "fair") to its constant.
func ParseMode(name string) (strategy.Mode, error) {
	switch name {
	case "max":
		return strategy.ModeMax, nil
	case "fair":
		return strategy.ModeFair, nil
	}
	return 0, fmt.Errorf("unknown mode %q (want max or fair)", name)
}

// ParseImpairments maps an impairment-profile name to its calibration;
// the empty string means "default".
func ParseImpairments(name string) (channel.Impairments, error) {
	switch name {
	case "", "default":
		return channel.DefaultImpairments(), nil
	case "perfect":
		return channel.PerfectHardware(), nil
	}
	return channel.Impairments{}, fmt.Errorf("unknown impairments %q (want default or perfect)", name)
}

// namedValue adapts a ParseX function to flag.Value so bad names fail
// at flag-parse time with the parser's error message.
type namedValue struct {
	name  string
	apply func(string) error
}

func (v *namedValue) String() string { return v.name }

func (v *namedValue) Set(s string) error {
	if err := v.apply(s); err != nil {
		return err
	}
	v.name = s
	return nil
}

// Scenario registers -scenario with the given default name and returns
// the parsed destination. A bad default is a programming error.
func Scenario(fs *flag.FlagSet, def, usage string) *channel.Scenario {
	sc, err := ParseScenario(def)
	if err != nil {
		panic(err)
	}
	dst := &sc
	fs.Var(&namedValue{name: def, apply: func(s string) error {
		parsed, err := ParseScenario(s)
		if err != nil {
			return err
		}
		*dst = parsed
		return nil
	}}, "scenario", usage)
	return dst
}

// Mode registers -mode ("max" or "fair") and returns the destination.
func Mode(fs *flag.FlagSet, def, usage string) *strategy.Mode {
	m, err := ParseMode(def)
	if err != nil {
		panic(err)
	}
	dst := &m
	fs.Var(&namedValue{name: def, apply: func(s string) error {
		parsed, err := ParseMode(s)
		if err != nil {
			return err
		}
		*dst = parsed
		return nil
	}}, "mode", usage)
	return dst
}

// Seed registers the conventional -seed flag.
func Seed(fs *flag.FlagSet, def int64) *int64 {
	return fs.Int64("seed", def, "master seed (same seed → same world)")
}

// CampaignFlags is the sharding/checkpointing flag set campaign-scale
// commands share.
type CampaignFlags struct {
	// Shards is the number of work units per grid cell (0 picks a
	// schedulable default from the topology count).
	Shards int
	// Workers is the evaluator pool size (defaults to GOMAXPROCS).
	Workers int
	// Checkpoint is the JSONL journal path ("" disables).
	Checkpoint string
	// Resume continues an existing checkpoint instead of failing on it.
	Resume bool
}

// Campaign registers -shards, -workers, -checkpoint and -resume on fs.
func Campaign(fs *flag.FlagSet) *CampaignFlags {
	c := &CampaignFlags{}
	fs.IntVar(&c.Shards, "shards", 0, "work units per grid cell (0 = auto from topology count)")
	fs.IntVar(&c.Workers, "workers", runtime.GOMAXPROCS(0), "evaluator goroutines")
	fs.StringVar(&c.Checkpoint, "checkpoint", "", "JSONL checkpoint journal path (enables kill/resume)")
	fs.BoolVar(&c.Resume, "resume", false, "resume the -checkpoint journal instead of failing if it exists")
	return c
}

// Validate rejects flag combinations the engine cannot honor, against
// the campaign's topology count.
func (c *CampaignFlags) Validate(topologies int) error {
	if topologies < 1 {
		return fmt.Errorf("-topologies must be ≥ 1 (got %d)", topologies)
	}
	if c.Workers < 1 {
		return fmt.Errorf("-workers must be ≥ 1 (got %d)", c.Workers)
	}
	if c.Shards < 0 {
		return fmt.Errorf("-shards must be ≥ 1, or 0 for auto (got %d)", c.Shards)
	}
	if c.Shards > topologies {
		return fmt.Errorf("-shards (%d) must not exceed -topologies (%d)", c.Shards, topologies)
	}
	if c.Resume && c.Checkpoint == "" {
		return fmt.Errorf("-resume requires -checkpoint")
	}
	return nil
}

// EffectiveShards resolves the shard count: an explicit value wins;
// auto targets ~4 topologies per shard, clamped to [1, 256] and the
// topology count, so checkpoints stay fine-grained without the journal
// dominating tiny runs.
func (c *CampaignFlags) EffectiveShards(topologies int) int {
	if c.Shards > 0 {
		return c.Shards
	}
	s := topologies / 4
	if s < 1 {
		s = 1
	}
	if s > 256 {
		s = 256
	}
	return s
}

// DebugFlags is the operational flag set every copa command shares:
// -v / -debug-addr plus the tracing pair -trace-out / -trace-sample.
type DebugFlags struct {
	Verbose bool
	Addr    string
	// TraceOut is a path to dump all retained spans as JSON at
	// shutdown ("" disables, "-" writes to stderr).
	TraceOut string
	// TraceSample is the fraction of new root traces that get sampled
	// into hierarchical spans (existing remote decisions always win).
	TraceSample float64
}

// Debug registers -v, -debug-addr, -trace-out and -trace-sample on fs.
func Debug(fs *flag.FlagSet) *DebugFlags {
	d := &DebugFlags{}
	fs.BoolVar(&d.Verbose, "v", false, "debug logging")
	fs.StringVar(&d.Addr, "debug-addr", "", "serve expvar + pprof + /metrics on this address (\":0\" picks a port)")
	fs.StringVar(&d.TraceOut, "trace-out", "", "dump recorded spans as JSON to this file at exit ('-' for stderr)")
	fs.Float64Var(&d.TraceSample, "trace-sample", 1, "fraction of new traces to sample [0,1]")
	return d
}

// Start applies the verbosity and trace-sampling settings, starts the
// runtime metrics collector, and, when -debug-addr was given, starts
// the obs debug server, announcing the bound address on stderr. The
// returned shutdown function is never nil; it stops what Start
// started and honors -trace-out by dumping the span ring as JSON.
func (d *DebugFlags) Start() (shutdown func(), err error) {
	obs.SetVerbose(d.Verbose)
	obs.SetTraceSampling(d.TraceSample)
	stopRuntime := obs.StartRuntimeCollector(0)
	stopServer := func() {}
	if d.Addr != "" {
		bound, stop, err := obs.ServeDebug(d.Addr)
		if err != nil {
			stopRuntime()
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "debug server on http://%s/debug/vars\n", bound)
		stopServer = stop
	}
	return func() {
		stopServer()
		stopRuntime()
		if err := d.dumpTrace(); err != nil {
			fmt.Fprintf(os.Stderr, "trace dump failed: %v\n", err)
		}
	}, nil
}

// dumpTrace writes the retained span ring to -trace-out.
func (d *DebugFlags) dumpTrace() error {
	if d.TraceOut == "" {
		return nil
	}
	if d.TraceOut == "-" {
		return obs.Tracing().WriteJSON(os.Stderr)
	}
	f, err := os.Create(d.TraceOut)
	if err != nil {
		return err
	}
	if err := obs.Tracing().WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// MobilityFlags is the time-evolving-channel flag group shared by
// copasim's mobility figure and copacampaign's mobility mode.
type MobilityFlags struct {
	// SpeedMps is the client speed; < 0 means "sweep the default grid"
	// for tools that support a sweep axis.
	SpeedMps float64
	// Duration is the simulated time per cell.
	Duration time.Duration
	// Step is the drift controller's tick.
	Step time.Duration
	// ThresholdDB is the drift detector's excursion threshold.
	ThresholdDB float64
	// ReassocPerSec / ChurnPerSec drive the event timeline.
	ReassocPerSec float64
	ChurnPerSec   float64
}

// Mobility registers -speed, -duration, -drift-step, -drift-threshold,
// -reassoc-rate and -churn-rate on fs.
func Mobility(fs *flag.FlagSet) *MobilityFlags {
	m := &MobilityFlags{}
	fs.Float64Var(&m.SpeedMps, "speed", -1, "client speed in m/s (-1 sweeps the default 0…vehicular grid)")
	fs.DurationVar(&m.Duration, "duration", 300*time.Millisecond, "simulated time per mobility cell")
	fs.DurationVar(&m.Step, "drift-step", 5*time.Millisecond, "drift controller tick")
	fs.Float64Var(&m.ThresholdDB, "drift-threshold", 1.0, "drift detector excursion threshold (dB)")
	fs.Float64Var(&m.ReassocPerSec, "reassoc-rate", 0, "client re-association events per second per client")
	fs.Float64Var(&m.ChurnPerSec, "churn-rate", 0, "AP churn events per second per AP")
	return m
}

// Validate rejects unusable mobility settings.
func (m *MobilityFlags) Validate() error {
	if m.Duration <= 0 {
		return fmt.Errorf("-duration must be > 0 (got %v)", m.Duration)
	}
	if m.Step <= 0 || m.Step > m.Duration {
		return fmt.Errorf("-drift-step must be in (0, -duration] (got %v)", m.Step)
	}
	if m.ThresholdDB <= 0 {
		return fmt.Errorf("-drift-threshold must be > 0 dB (got %g)", m.ThresholdDB)
	}
	if m.ReassocPerSec < 0 || m.ChurnPerSec < 0 {
		return fmt.Errorf("event rates must be ≥ 0")
	}
	return nil
}

// Speeds returns the sweep axis: the single configured speed, or the
// default grid when unset.
func (m *MobilityFlags) Speeds(defaults []float64) []float64 {
	if m.SpeedMps >= 0 {
		return []float64{m.SpeedMps}
	}
	return defaults
}
