package main

import (
	"context"
	"fmt"
	"os"
	"strconv"

	"copa/internal/channel"
	"copa/internal/cliflags"
	"copa/internal/obs"
	"copa/internal/testbed"
)

// runMobility is the -mobility mode: a speed × re-negotiation-rate
// sweep of the drift controller (internal/drift) instead of a scheme
// campaign. Each cell is a full controller run, cheap enough that the
// mode bypasses the checkpoint engine entirely.
func runMobility(ctx context.Context, stdout *os.File, sc channel.Scenario,
	seed int64, topologies int, mob *cliflags.MobilityFlags,
	thresholds, csvDir string, quiet bool) int {
	logger := obs.Logger()
	if err := mob.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "copacampaign: %v\n", err)
		return 2
	}
	cfg := testbed.DefaultMobilityConfig(seed)
	cfg.Topologies = topologies
	cfg.SpeedsMps = mob.Speeds(testbed.DefaultSpeeds())
	cfg.Duration = mob.Duration
	cfg.Step = mob.Step
	cfg.ReassocPerSec = mob.ReassocPerSec
	cfg.ChurnPerSec = mob.ChurnPerSec
	cfg.ThresholdsDB = nil
	for _, f := range splitComma(thresholds) {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil || v <= 0 {
			fmt.Fprintf(os.Stderr, "copacampaign: -drift-thresholds: bad threshold %q\n", f)
			return 2
		}
		cfg.ThresholdsDB = append(cfg.ThresholdsDB, v)
	}
	if len(cfg.ThresholdsDB) == 0 {
		cfg.ThresholdsDB = []float64{mob.ThresholdDB}
	}

	sweep, err := testbed.RunMobilitySweep(ctx, sc, cfg)
	if err != nil {
		logger.Error("mobility sweep failed", "err", err)
		return 1
	}
	if csvDir != "" {
		if err := sweep.ExportCSV(csvDir); err != nil {
			logger.Error("csv export failed", "dir", csvDir, "err", err)
			return 1
		}
	}
	if !quiet {
		fmt.Fprintf(stdout, "%s mobility sweep: %d topologies, %v per cell\n",
			sc.Name, cfg.Topologies, cfg.Duration)
		fmt.Fprintf(stdout, "  %9s  %9s  %12s  %8s  %7s  %9s  %11s\n",
			"thresh", "speed", "aggregate", "renegs/s", "incr/s", "revoked/s", "delta-share")
		for _, p := range sweep.Points {
			fmt.Fprintf(stdout, "  %6.1f dB  %5.1f m/s  %7.1f Mb/s  %8.2f  %7.2f  %9.2f  %10.1f%%\n",
				p.ThresholdDB, p.SpeedMps, p.AggregateBps/1e6,
				p.RenegsPerSec, p.IncrementalPerSec, p.CertRevocationsPerSec, p.DeltaByteShare*100)
		}
	}
	return 0
}
