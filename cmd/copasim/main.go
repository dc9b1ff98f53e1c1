// Command copasim regenerates the COPA paper's tables and figures on the
// simulated testbed and prints the rows/series the paper reports.
//
// Usage:
//
//	copasim -fig 11                # one figure
//	copasim -fig all -topologies 30
//	copasim -fig headlines         # the §1 claims
//
// Operational flags: -debug-addr serves expvar (/debug/vars), a registry
// snapshot (/debug/metrics), recent spans (/debug/spans) and pprof;
// -cpuprofile/-memprofile/-exec-trace write profiles; -trace-out dumps
// recorded spans as JSON at exit (one cli.sim trace with a
// cli.sim.figure child per figure run); -v enables debug logging.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"syscall"

	"copa/internal/channel"
	"copa/internal/cliflags"
	"copa/internal/obs"
	"copa/internal/strategy"
	"copa/internal/testbed"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("copasim", flag.ExitOnError)
	fig := fs.String("fig", "all", "figure to reproduce: 2,3,4,7,9,10,11,12,13,14,table1,headlines,accuracy,backlog,loss,mobility,all")
	seed := cliflags.Seed(fs, 1)
	topologies := fs.Int("topologies", 30, "number of topologies per scenario")
	lossRate := fs.Float64("loss", 0, "-fig loss: evaluate this single control-frame loss rate instead of the 0–30% sweep")
	burst := fs.Float64("burst", 1, "-fig loss: mean loss-burst length in frames (>1 switches to Gilbert–Elliott bursts)")
	mob := cliflags.Mobility(fs)
	skipPlus := fs.Bool("skip-copa-plus", false, "skip the mercury/water-filling (COPA+) variants, a second evaluation pass per topology")
	workers := fs.Int("workers", 0, "bound parallel topology evaluation (0 = GOMAXPROCS)")
	outDir := fs.String("out", "", "directory to also write CSV data files into")
	dbg := cliflags.Debug(fs)
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	execTrace := fs.String("exec-trace", "", "write a runtime execution trace to this file")
	_ = fs.Parse(args)
	// Ctrl-C (or SIGTERM) cancels the context the experiment harness
	// runs under: the current figure aborts between topologies instead
	// of the process dying mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	csvDir = *outDir
	maxParallel = *workers
	logger := obs.Logger()
	stopDebug, err := dbg.Start()
	if err != nil {
		logger.Error("debug server failed", "addr", dbg.Addr, "err", err)
		return 1
	}
	defer stopDebug()
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			logger.Error("cpuprofile failed", "err", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			logger.Error("cpuprofile failed", "err", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *execTrace != "" {
		f, err := os.Create(*execTrace)
		if err != nil {
			logger.Error("exec-trace failed", "err", err)
			return 1
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			logger.Error("exec-trace failed", "err", err)
			return 1
		}
		defer trace.Stop()
	}
	defer func() {
		if *memProfile == "" {
			return
		}
		f, err := os.Create(*memProfile)
		if err != nil {
			logger.Error("memprofile failed", "err", err)
			return
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			logger.Error("memprofile failed", "err", err)
		}
	}()

	// One trace per invocation: cli.sim is the root, and each figure run
	// is a timed cli.sim.figure child that the harness's own spans
	// (testbed.scenario, testbed.figure14, ...) nest under.
	ctx, root := obs.StartSpan(ctx, "cli.sim")
	defer root.End()

	failed := false
	matched := false
	runOne := func(name string, f func(ctx context.Context) error) {
		if *fig != "all" && *fig != name {
			return
		}
		matched = true
		if failed {
			return
		}
		fmt.Printf("\n===== %s =====\n", title(name))
		logger.Debug("reproducing", "figure", name, "seed", *seed, "topologies", *topologies)
		sp := obs.ChildSpan(ctx, "cli.sim.figure")
		sp.SetAttr("figure", name)
		fctx := ctx
		if sp != nil {
			fctx = obs.ContextWithSpan(ctx, sp.Context())
		}
		err := f(fctx)
		sp.EndErr(err)
		if err != nil {
			logger.Error("figure failed", "figure", name, "err", err)
			failed = true
		}
	}

	runOne("2", func(context.Context) error { printFigure2(*seed); return nil })
	runOne("3", func(context.Context) error { printFigure3(*seed, *topologies); return nil })
	runOne("4", func(context.Context) error { printFigure4(*seed); return nil })
	runOne("table1", func(context.Context) error { printTable1(); return nil })
	runOne("7", func(context.Context) error { printFigure7(*seed); return nil })
	runOne("9", func(context.Context) error { printFigure9(*seed, *topologies); return nil })
	runOne("10", func(ctx context.Context) error {
		return printScenario(ctx, "Figure 10 (1x1)", channel.Scenario1x1, *seed, *topologies, 0, *skipPlus)
	})
	runOne("11", func(ctx context.Context) error {
		return printScenario(ctx, "Figure 11 (4x2)", channel.Scenario4x2, *seed, *topologies, 0, *skipPlus)
	})
	runOne("12", func(ctx context.Context) error {
		return printScenario(ctx, "Figure 12 (4x2, interference −10 dB)", channel.Scenario4x2, *seed, *topologies, -10, *skipPlus)
	})
	runOne("13", func(ctx context.Context) error {
		return printScenario(ctx, "Figure 13 (3x2)", channel.Scenario3x2, *seed, *topologies, 0, *skipPlus)
	})
	runOne("14", func(ctx context.Context) error { return printFigure14(ctx, *seed, *topologies) })
	runOne("headlines", func(ctx context.Context) error { return printHeadlines(ctx, *seed, *topologies) })
	runOne("accuracy", func(ctx context.Context) error { return printAccuracy(ctx, *seed, *topologies) })
	runOne("backlog", func(context.Context) error { return printBacklog(*seed) })
	runOne("loss", func(ctx context.Context) error { return printLossSweep(ctx, *seed, *topologies, *lossRate, *burst) })
	runOne("mobility", func(ctx context.Context) error { return printMobility(ctx, *seed, *topologies, mob) })
	if !matched {
		logger.Error("unknown figure", "fig", *fig)
		fmt.Fprintln(os.Stderr, "valid figures: 2,3,4,7,9,10,11,12,13,14,table1,headlines,accuracy,backlog,loss,mobility,all")
		return 2
	}
	if failed {
		return 1
	}
	return 0
}

// csvDir, when non-empty, receives CSV exports of every figure printed.
var csvDir string

// maxParallel bounds scenario-harness workers (0 = GOMAXPROCS). Worker
// count never changes results — evaluation streams are stateless per
// topology — only wall time.
var maxParallel int

func maybeExport(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "csv export: %v\n", err)
	}
}

func title(name string) string {
	switch name {
	case "table1":
		return "Table 1: MAC overhead"
	case "headlines":
		return "Headline claims (§1)"
	case "accuracy":
		return "Strategy prediction accuracy (§3.3)"
	case "backlog":
		return "Backlog drain (§3.5)"
	case "loss":
		return "Throughput vs control-frame loss"
	case "mobility":
		return "Realized aggregate throughput vs client speed"
	default:
		return "Figure " + name
	}
}

func printFigure2(seed int64) {
	f := testbed.RunFigure2(seed)
	if csvDir != "" {
		maybeExport(f.ExportCSV(csvDir))
	}
	fmt.Println("subcarrier  ant1(dBm)  ant2(dBm)")
	for k := range f.PowerDBm[0] {
		fmt.Printf("%10d  %9.1f  %9.1f\n", k, f.PowerDBm[0][k], f.PowerDBm[1][k])
	}
}

func printFigure3(seed int64, topologies int) {
	f := testbed.RunFigure3(seed, topologies)
	if csvDir != "" {
		maybeExport(f.ExportCSV(csvDir))
	}
	fmt.Printf("INR reduction : %+6.1f dB (σ %.1f)   [paper: ≈−27 dB]\n", f.INRReductionMeanDB, f.INRReductionStdDB)
	fmt.Printf("SNR reduction : %+6.1f dB (σ %.1f)   [paper: ≈−8 dB]\n", f.SNRReductionMeanDB, f.SNRReductionStdDB)
	fmt.Printf("SINR increase : %+6.1f dB (σ %.1f)   [paper: ≈+18 dB]\n", f.SINRIncreaseMeanDB, f.SINRIncreaseStdDB)
}

func printFigure4(seed int64) {
	f := testbed.RunFigure4(seed)
	if csvDir != "" {
		maybeExport(f.ExportCSV(csvDir))
	}
	fmt.Println("subcarrier  SNR-BF  SNR-Null  SINR-Null  (dB)")
	for k := range f.SNRBFDB {
		fmt.Printf("%10d  %6.1f  %8.1f  %9.1f\n", k, f.SNRBFDB[k], f.SNRNullDB[k], f.SINRNullDB[k])
	}
}

func printTable1() {
	rows := testbed.Table1()
	if csvDir != "" {
		maybeExport(testbed.ExportTable1CSV(csvDir))
	}
	fmt.Println("coherence   COPA-Conc  COPA-Seq  CSMA-CTS  CSMA-RTS/CTS   (% of TXOP)")
	for _, r := range rows {
		fmt.Printf("%9s   %8.1f%%  %7.1f%%  %7.1f%%  %11.1f%%\n",
			r.Coherence, r.COPAConc*100, r.COPASeq*100, r.CSMACTS*100, r.CSMARTS*100)
	}
	fmt.Println("paper @4ms: 9.3 / 7.7 / 2.7 / 3.7 · @30ms: 5.1 / 3.5 · @1000ms: 4.5 / 2.8")
}

func printFigure7(seed int64) {
	f := testbed.RunFigure7(seed)
	if csvDir != "" && len(f.BERCOPA) > 0 {
		maybeExport(f.ExportCSV(csvDir))
	}
	if len(f.BERCOPA) == 0 {
		fmt.Println("(nulling infeasible on this draw; try another seed)")
		return
	}
	fmt.Printf("COPA: %s → %.1f Mb/s   NoPA: %s → %.1f Mb/s\n", f.COPAMCS, f.COPAMbps, f.NoPAMCS, f.NoPAMbps)
	fmt.Println("subcarrier  BER-COPA     BER-NoPA     dropped")
	for k := range f.BERCOPA {
		mark := ""
		if f.Dropped[k] {
			mark = "×"
		}
		fmt.Printf("%10d  %11.3e  %11.3e  %s\n", k, f.BERCOPA[k], f.BERNoPA[k], mark)
	}
}

func printFigure9(seed int64, topologies int) {
	f := testbed.RunFigure9(seed, topologies)
	if csvDir != "" {
		maybeExport(f.ExportCSV(csvDir))
	}
	fmt.Println("signal(dBm)  interference(dBm)")
	for i := range f.SignalDBm {
		fmt.Printf("%11.1f  %17.1f\n", f.SignalDBm[i], f.InterferenceDBm[i])
	}
}

func printScenario(ctx context.Context, name string, sc channel.Scenario, seed int64, topologies int, deltaDB float64, skipPlus bool) error {
	cfg := testbed.DefaultConfig(seed)
	cfg.Topologies = topologies
	cfg.InterferenceDeltaDB = deltaDB
	cfg.SkipCOPAPlus = skipPlus
	cfg.MaxParallel = maxParallel
	res, err := testbed.RunScenario(ctx, sc, cfg)
	if err != nil {
		return err
	}
	if csvDir != "" {
		slug := fmt.Sprintf("fig_%s_%+.0fdB.csv", sc.Name, deltaDB)
		if deltaDB == 0 {
			slug = fmt.Sprintf("fig_%s.csv", sc.Name)
		}
		maybeExport(res.ExportCSV(csvDir, slug))
	}
	fmt.Printf("%s — mean aggregate throughput over %d topologies\n", name, topologies)
	for _, scheme := range testbed.AllSchemes {
		vals, ok := res.PerTopology[scheme]
		if !ok {
			continue
		}
		fmt.Printf("  %-10s  mean %6.1f Mb/s   p10 %6.1f   median %6.1f   p90 %6.1f\n",
			scheme, testbed.Mean(vals)/1e6, testbed.Percentile(vals, 10)/1e6,
			testbed.Median(vals)/1e6, testbed.Percentile(vals, 90)/1e6)
	}
	return nil
}

func printFigure14(ctx context.Context, seed int64, topologies int) error {
	f, err := testbed.RunFigure14(ctx, seed, topologies)
	if err != nil {
		return err
	}
	if csvDir != "" {
		maybeExport(f.ExportCSV(csvDir))
	}
	fmt.Printf("%-22s", "scheme \\ scenario")
	for _, sc := range []string{"1x1", "4x2", "3x2"} {
		fmt.Printf("  %6s", sc)
	}
	fmt.Println(" (% over 1-decoder CSMA)")
	for _, scheme := range testbed.Figure14Schemes {
		fmt.Printf("%-22s", scheme)
		for _, sc := range []string{"1x1", "4x2", "3x2"} {
			fmt.Printf("  %+5.1f%%", f.Improvement[sc][scheme])
		}
		fmt.Println()
	}
	return nil
}

func printAccuracy(ctx context.Context, seed int64, topologies int) error {
	acc, err := testbed.RunPredictionAccuracy(ctx, seed, topologies)
	if err != nil {
		return err
	}
	fmt.Println("mean |predicted − realized| / realized, per strategy:")
	for _, k := range []strategy.Kind{strategy.KindCSMA, strategy.KindCOPASeq, strategy.KindNull, strategy.KindConcBF, strategy.KindConcNull} {
		if mae, ok := acc.MAEByKind[k]; ok {
			fmt.Printf("  %-9v  MAE %5.1f%%   bias %+5.1f%%\n", k, mae*100, acc.BiasByKind[k]*100)
		}
	}
	fmt.Printf("mispicked strategy on %.0f%% of topologies, costing %.0f%% each\n",
		acc.MispickRate*100, acc.MispickCostMean*100)
	return nil
}

func printBacklog(seed int64) error {
	fmt.Println("worst-client mean frame delay (ms) vs per-client offered load:")
	fmt.Printf("  %-10s", "scheme")
	loads := []float64{20e6, 40e6, 55e6, 70e6}
	for _, l := range loads {
		fmt.Printf("  %5.0fM", l/1e6)
	}
	fmt.Println()
	rows := []struct {
		name string
		get  func(testbed.BacklogComparison) [2]float64
	}{
		{"CSMA", func(c testbed.BacklogComparison) [2]float64 { return c.CSMADelaySec }},
		{"COPA", func(c testbed.BacklogComparison) [2]float64 { return c.COPADelaySec }},
		{"COPA fair", func(c testbed.BacklogComparison) [2]float64 { return c.COPAFairDelaySec }},
	}
	for _, r := range rows {
		fmt.Printf("  %-10s", r.name)
		for _, l := range loads {
			cmp, err := testbed.RunBacklogComparison(seed, l, 2500)
			if err != nil {
				return err
			}
			d := r.get(cmp)
			worst := d[0]
			if d[1] > worst {
				worst = d[1]
			}
			if worst > 1e6 {
				fmt.Printf("  %6s", "inf")
			} else {
				fmt.Printf("  %6.1f", worst*1e3)
			}
		}
		fmt.Println()
	}
	return nil
}

func printLossSweep(ctx context.Context, seed int64, topologies int, loss, burst float64) error {
	cfg := testbed.DefaultLossSweepConfig(seed)
	// The sweep is exchange-by-exchange (not batch-evaluated), so cap the
	// population to keep -fig all fast.
	if topologies < cfg.Topologies {
		cfg.Topologies = topologies
	}
	cfg.MeanBurst = burst
	if loss > 0 {
		cfg.LossRates = []float64{loss}
	}
	sweep, err := testbed.RunLossSweep(ctx, channel.Scenario4x2, cfg)
	if err != nil {
		return err
	}
	if csvDir != "" {
		maybeExport(sweep.ExportCSV(csvDir))
	}
	kind := "i.i.d."
	if burst > 1 {
		kind = fmt.Sprintf("Gilbert–Elliott, mean burst %.1f", burst)
	}
	fmt.Printf("4x2, %d topologies, %s loss — realized aggregate vs ITS frame loss\n", cfg.Topologies, kind)
	fmt.Printf("CSMA baseline: %.1f Mb/s\n", sweep.MeanCSMABps()/1e6)
	fmt.Println("  loss   aggregate   fallback  retries/exch  ctrl-bytes")
	for _, p := range sweep.Points {
		fmt.Printf("  %3.0f%%  %7.1f Mb/s  %7.1f%%  %12.2f  %10.0f\n",
			p.Loss*100, p.AggregateBps/1e6, p.FallbackRate*100, p.RetriesPerExchange, p.ControlBytesPerExchange)
	}
	return nil
}

func printHeadlines(ctx context.Context, seed int64, topologies int) error {
	cfg := testbed.DefaultConfig(seed)
	cfg.Topologies = topologies
	cfg.SkipCOPAPlus = true
	cfg.MaxParallel = maxParallel
	res, err := testbed.RunScenario(ctx, channel.Scenario4x2, cfg)
	if err != nil {
		return err
	}
	hs := testbed.Headlines(res)
	fmt.Printf("Null loses to CSMA           : %5.1f%%  [paper: 83%%]\n", hs.NullLosesToCSMA*100)
	fmt.Printf("COPA over Null (where loses) : %+5.1f%%  [paper: +64%%]\n", hs.COPAOverNullWhereNullLoses*100)
	fmt.Printf("COPA beats CSMA (same set)   : %5.1f%%  [paper: 76%%]\n", hs.COPABeatsCSMAWhereNullLoses*100)
	fmt.Printf("Null win median (where wins) : %+5.1f%%  [paper: +12%%]\n", hs.NullWinMedian*100)
	fmt.Printf("COPA win median (same set)   : %+5.1f%%  [paper: +45%%]\n", hs.COPAWinMedianWhereNullWins*100)
	fmt.Printf("price of fairness            : %5.1f%%  [paper: ≈3–6%%]\n", hs.PriceOfFairness*100)
	return nil
}

func printMobility(ctx context.Context, seed int64, topologies int, mob *cliflags.MobilityFlags) error {
	if err := mob.Validate(); err != nil {
		return err
	}
	cfg := testbed.DefaultMobilityConfig(seed)
	// The sweep runs a full controller per cell; cap the population to
	// keep -fig all fast.
	if topologies < cfg.Topologies {
		cfg.Topologies = topologies
	}
	cfg.SpeedsMps = mob.Speeds(testbed.DefaultSpeeds())
	cfg.ThresholdsDB = []float64{mob.ThresholdDB}
	cfg.Duration = mob.Duration
	cfg.Step = mob.Step
	cfg.ReassocPerSec = mob.ReassocPerSec
	cfg.ChurnPerSec = mob.ChurnPerSec
	sweep, err := testbed.RunMobilitySweep(ctx, channel.Scenario4x2, cfg)
	if err != nil {
		return err
	}
	if csvDir != "" {
		maybeExport(sweep.ExportCSV(csvDir))
	}
	fmt.Printf("4x2, %d topologies, %v per cell — realized aggregate vs client speed (threshold %.1f dB)\n",
		cfg.Topologies, cfg.Duration, mob.ThresholdDB)
	fmt.Println("  speed     aggregate   renegs/s  incr/s  revoked/s  delta-share")
	for _, p := range sweep.Points {
		fmt.Printf("  %5.1f m/s %7.1f Mb/s  %7.2f  %6.2f  %9.2f  %10.1f%%\n",
			p.SpeedMps, p.AggregateBps/1e6, p.RenegsPerSec, p.IncrementalPerSec,
			p.CertRevocationsPerSec, p.DeltaByteShare*100)
	}
	return nil
}
