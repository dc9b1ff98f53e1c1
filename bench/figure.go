package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"copa/internal/campaign"
	"copa/internal/channel"
	"copa/internal/obs"
	"copa/internal/precoding"
	"copa/internal/rng"
	"copa/internal/strategy"
)

// figureConfig sizes the figure workload.
type figureConfig struct {
	scenario channel.Scenario
	skipPlus bool // tests only: COPA+ makes a 4x2 topology cost seconds
	setups   int
}

var defaultFigure = figureConfig{scenario: channel.Scenario4x2, setups: 5}

// figurePerSecond caps the population at this many topologies per
// second of window — far more than a window can evaluate, so the window,
// not the cap, ends the run.
const figurePerSecond = 50

// figureRun is one prepared campaign: its spec and checkpoint journal.
type figureRun struct {
	spec    campaign.Spec
	dir     string
	journal string
}

func (f figureRun) remove() { os.RemoveAll(f.dir) }

// prepareFigure builds the spec of an n-topology campaign and its
// journal directory, and warms the evaluator on a topology outside the
// population so lazily built state is in place before the window opens.
func prepareFigure(p params, sc channel.Scenario, skipPlus bool, n, i int) (figureRun, error) {
	spec := campaign.Spec{
		Seed:         p.seed,
		Scenario:     sc,
		Topologies:   n,
		Shards:       n, // one topology per unit: units are the operations timed
		Profiles:     campaign.DefaultProfiles(),
		AgeBuckets:   1,
		SkipCOPAPlus: skipPlus,
	}
	if err := spec.Validate(); err != nil {
		return figureRun{}, err
	}
	if err := os.MkdirAll(p.workdir, 0o755); err != nil {
		return figureRun{}, err
	}
	dir, err := os.MkdirTemp(p.workdir, "figure-")
	if err != nil {
		return figureRun{}, err
	}
	dep := channel.DeploymentAt(p.seed, sc, n+i)
	if _, err := strategy.NewEvaluator(dep, channel.DefaultImpairments(), rng.New(p.seed)).EvaluateAll(); err != nil {
		os.RemoveAll(dir)
		return figureRun{}, fmt.Errorf("figure warm-up: %w", err)
	}
	return figureRun{spec: spec, dir: dir, journal: filepath.Join(dir, "journal.jsonl")}, nil
}

// unitFailures reads the engine's failed-unit counter.
func unitFailures() uint64 { return obs.C("copa.campaign.units_failed").Value() }

// figure runs the campaign until the window closes: the engine stops
// handing out units, lets the ones in flight finish, and journals them.
func figure(ctx context.Context, p params, cfg figureConfig) (*outcome, error) {
	o := newOutcome()
	n := max(int(figurePerSecond*p.window.Seconds()), 2)
	setup, run, err := timedSetups(cfg.setups, func(i int) (figureRun, error) {
		return prepareFigure(p, cfg.scenario, cfg.skipPlus, n, i)
	}, figureRun.remove)
	if err != nil {
		return nil, err
	}
	defer run.remove()
	o.values["setup_s"] = setup

	settle()
	// A sampled context makes the engine record its own campaign.run,
	// unit and checkpoint spans — three per topology, negligible next to
	// a topology's cost — and the unit latencies are read back from them.
	ctx, root := (&tracer{}).start(ctx, "figure")
	traceID := root.sc.TraceID.String()
	ctx, cancel := context.WithTimeout(ctx, p.window)
	defer cancel()
	failed0 := unitFailures()
	done := 0
	cpu0 := cpuTime()
	start := time.Now()
	_, err = campaign.Run(ctx, run.spec, campaign.Options{
		Workers:    runtime.GOMAXPROCS(0),
		Checkpoint: run.journal,
		OnProgress: func(d, _ int) { done = d },
	})
	wall := time.Since(start)
	cpu := cpuTime() - cpu0
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		o.notes = append(o.notes, fmt.Sprintf("campaign: %v", err))
	}
	o.failed = int(unitFailures() - failed0)
	o.attempted = done + o.failed

	var unitMS []float64
	for _, s := range obs.Tracing().TraceSpans(traceID) {
		if s.Name == "campaign.unit" && s.Err == "" {
			unitMS = append(unitMS, s.Duration.Seconds()*1e3)
		}
	}
	if len(unitMS) == 0 {
		return nil, fmt.Errorf("figure: no campaign.unit spans recorded (%d units done)", done)
	}
	o.values["p50_ms"] = Median(unitMS)
	o.values["p99_ms"] = tail(unitMS, o)
	o.values["cpu_us_per_op"] = cpu.Seconds() * 1e6 / float64(max(done, 1))
	o.values["ops_per_s"] = float64(done) / wall.Seconds()

	if done > 0 {
		u, err := pickJournaledUnit(run.journal, rand.New(rand.NewSource(p.seed)))
		if err != nil {
			return nil, err
		}
		if err := checkJournalUnit(run.spec, run.journal, u); err != nil {
			o.fail("%v", err)
		}
	}
	rss, err := peakRSSMB()
	o.values["peak_rss_mb"] = rss
	return o, err
}

// journalUnits reads a checkpoint journal's unit lines, keyed by unit.
func journalUnits(path string) (map[int][]byte, []int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	lines := map[int][]byte{}
	var order []int
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 1<<24)
	for first := true; sc.Scan(); first = false {
		if first {
			continue // header
		}
		var u struct {
			Unit int `json:"unit"`
		}
		if err := json.Unmarshal(sc.Bytes(), &u); err != nil {
			return nil, nil, fmt.Errorf("journal %s: %w", path, err)
		}
		lines[u.Unit] = append([]byte(nil), sc.Bytes()...)
		order = append(order, u.Unit)
	}
	return lines, order, sc.Err()
}

// pickJournaledUnit chooses, from the seed, one unit the run journaled.
func pickJournaledUnit(path string, r *rand.Rand) (int, error) {
	_, order, err := journalUnits(path)
	if err != nil {
		return 0, err
	}
	if len(order) == 0 {
		return 0, fmt.Errorf("journal %s records no unit", path)
	}
	return order[r.Intn(len(order))], nil
}

// checkJournalUnit recomputes unit u with campaign.EvalUnit and requires
// the journaled line to match its encoding byte for byte.
func checkJournalUnit(spec campaign.Spec, path string, u int) error {
	lines, _, err := journalUnits(path)
	if err != nil {
		return err
	}
	got, ok := lines[u]
	if !ok {
		return fmt.Errorf("unit %d is not in journal %s", u, path)
	}
	res, err := campaign.EvalUnit(spec, u, &precoding.Workspace{}, func() error { return nil })
	if err != nil {
		return fmt.Errorf("recompute unit %d: %w", u, err)
	}
	want, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("unit %d: journaled line differs from campaign.EvalUnit's result", u)
	}
	return nil
}
