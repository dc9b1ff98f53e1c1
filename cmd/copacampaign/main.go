// Command copacampaign runs massive scenario campaigns: it shards a
// topology population (optionally crossed with impairment profiles and
// a CSI-age grid) into deterministic work units, evaluates them over a
// worker pool, and aggregates every scheme's throughput into mergeable
// moments + quantile sketches — bounded memory at any population size.
//
// Results are bit-identical for a given -seed regardless of -workers,
// scheduling, or interruption: with -checkpoint the journal records
// each completed unit, and a killed campaign rerun with -resume
// recomputes only the missing units.
//
//	copacampaign -topologies 100000 -checkpoint sweep.jsonl -out sweep.json
//	copacampaign -topologies 100000 -checkpoint sweep.jsonl -resume -out sweep.json
//	copacampaign -topologies 30 -shards 8        # prints the Figs. 10–13 summary
//
// Operational flags mirror copasim: -v debug logging, -debug-addr
// expvar/pprof.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"copa/internal/campaign"
	"copa/internal/cliflags"
	"copa/internal/obs"
	"copa/internal/testbed"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout *os.File) int {
	fs := flag.NewFlagSet("copacampaign", flag.ExitOnError)
	scenario := cliflags.Scenario(fs, "4x2", "antenna scenario: 1x1, 4x2, 3x2")
	seed := cliflags.Seed(fs, 1)
	topologies := fs.Int("topologies", 30, "topology population per grid cell")
	cf := cliflags.Campaign(fs)
	profiles := fs.String("profiles", "default", "comma-separated impairment profiles to sweep (default, perfect)")
	ageBuckets := fs.Int("age-buckets", 1, "CSI-age grid size (bucket a evaluates CSI aged a/n of a coherence time)")
	deltaDB := fs.Float64("interference-delta-db", 0, "scale all cross-channels by this many dB (-10 = Fig. 12)")
	skipPlus := fs.Bool("skip-copa-plus", false, "skip the mercury/water-filling (COPA+) variants, a second evaluation pass per topology")
	multi := fs.Bool("multi-decoder", false, "evaluate with per-subcarrier rate selection")
	mobility := fs.Bool("mobility", false, "run the drift-controller mobility sweep (speed × re-negotiation rate) instead of a scheme campaign")
	mob := cliflags.Mobility(fs)
	driftThresholds := fs.String("drift-thresholds", "0.5,1,2", "-mobility: comma-separated drift-detector thresholds (dB) to sweep")
	out := fs.String("out", "", "write the merged aggregates as JSON to this file ('-' for stdout)")
	csvDir := fs.String("csv", "", "directory to write summary/CDF CSVs into")
	quiet := fs.Bool("q", false, "suppress the progress line and summary table")
	progressEvery := fs.Duration("progress-every", 10*time.Second, "interval between progress log lines with units/s and ETA (0 disables)")
	dbg := cliflags.Debug(fs)
	_ = fs.Parse(args)

	logger := obs.Logger()
	stopDebug, err := dbg.Start()
	if err != nil {
		logger.Error("debug server failed", "addr", dbg.Addr, "err", err)
		return 1
	}
	defer stopDebug()

	// -mobility is a self-contained local sweep: each cell is one drift
	// controller run, so the checkpoint machinery has nothing to shard
	// and is rejected rather than silently ignored.
	if *mobility {
		if cf.Checkpoint != "" || cf.Resume {
			fmt.Fprintln(os.Stderr, "copacampaign: -mobility runs locally; it cannot combine with -checkpoint or -resume")
			return 2
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		return runMobility(ctx, stdout, *scenario, *seed, *topologies, mob, *driftThresholds, *csvDir, *quiet)
	}

	if err := cf.Validate(*topologies); err != nil {
		fmt.Fprintf(os.Stderr, "copacampaign: %v\n", err)
		return 2
	}
	spec := campaign.Spec{
		Seed:                *seed,
		Scenario:            *scenario,
		Topologies:          *topologies,
		Shards:              cf.EffectiveShards(*topologies),
		AgeBuckets:          *ageBuckets,
		InterferenceDeltaDB: *deltaDB,
		SkipCOPAPlus:        *skipPlus,
		MultiDecoder:        *multi,
	}
	for _, name := range splitComma(*profiles) {
		imp, err := cliflags.ParseImpairments(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "copacampaign: %v\n", err)
			return 2
		}
		if name == "" {
			name = "default"
		}
		spec.Profiles = append(spec.Profiles, campaign.Profile{Name: name, Impairments: imp})
	}
	if err := spec.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "copacampaign: %v\n", err)
		return 2
	}

	// Ctrl-C / SIGTERM cancels the engine: in-flight units abort,
	// completed ones are already journaled, and the command exits
	// non-zero so a wrapper knows to rerun with -resume.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Root one trace per invocation: campaign.run, its per-unit and
	// checkpoint spans all stitch under this (subject to -trace-sample).
	ctx, rootSpan := obs.StartSpan(ctx, "cli.campaign")

	opt := campaign.Options{
		Workers:       cf.Workers,
		Checkpoint:    cf.Checkpoint,
		Resume:        cf.Resume,
		ProgressEvery: *progressEvery,
	}
	if *quiet {
		opt.ProgressEvery = 0
	} else {
		opt.OnProgress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rcampaign: %d/%d units", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	res, err := campaign.Run(ctx, spec, opt)
	rootSpan.EndErr(err)
	if err != nil {
		if !*quiet {
			fmt.Fprintln(os.Stderr)
		}
		logger.Error("campaign failed", "err", err)
		if cf.Checkpoint != "" && ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "copacampaign: interrupted; rerun with -checkpoint %s -resume to continue\n", cf.Checkpoint)
		}
		return 1
	}

	if *out != "" {
		if err := writeResult(res, *out, stdout); err != nil {
			logger.Error("writing result failed", "path", *out, "err", err)
			return 1
		}
	}
	if *csvDir != "" {
		if err := testbed.ExportCampaignCSV(*csvDir, res); err != nil {
			logger.Error("csv export failed", "dir", *csvDir, "err", err)
			return 1
		}
	}
	if !*quiet {
		printSummary(stdout, res)
	}
	return 0
}

// writeResult serializes the merged aggregates deterministically:
// equal campaigns produce byte-identical files.
func writeResult(res *campaign.Result, path string, stdout *os.File) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printSummary renders each grid cell the way copasim prints a
// scenario: one line per scheme with mean and sketch quantiles.
func printSummary(w *os.File, res *campaign.Result) {
	for _, prof := range res.Spec.Profiles {
		for age := 0; age < res.Spec.AgeBuckets; age++ {
			fmt.Fprintf(w, "%s (%s, profile %s, age %d/%d) — %d topologies\n",
				res.Spec.Scenario.Name, modeLabel(res.Spec), prof.Name, age, res.Spec.AgeBuckets, res.Spec.Topologies)
			testbed.WriteSummary(w, res, prof.Name, age)
		}
	}
}

func modeLabel(s campaign.Spec) string {
	if s.MultiDecoder {
		return "multi-decoder"
	}
	return "single-decoder"
}

// splitComma splits a comma-separated list, trimming empties at the
// ends but keeping interior empties (they name the default profile).
func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if len(out) > 1 && out[len(out)-1] == "" {
		out = out[:len(out)-1]
	}
	return out
}
