// Command copasim regenerates the COPA paper's tables and figures on the
// simulated testbed and prints the rows/series the paper reports. -fig
// its, dcf and cluster print the ITS control frames and the §3.1 MAC
// fairness simulations. -out DIR writes a CSV per figure and a
// self-contained DIR/report.html of the figures just printed.
//
// Usage:
//
//	copasim -fig 11                # one figure
//	copasim -fig all -topologies 30 -out results
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
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strings"
	"syscall"

	"copa/internal/campaign"
	"copa/internal/channel"
	"copa/internal/cliflags"
	"copa/internal/obs"
	"copa/internal/strategy"
	"copa/internal/testbed"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("copasim", flag.ExitOnError)
	fig := fs.String("fig", "all", "figure to reproduce: "+figureNames())
	seed := cliflags.Seed(fs, 1)
	o := &opts{mob: cliflags.Mobility(fs)}
	fs.IntVar(&o.topologies, "topologies", 30, "number of topologies per scenario")
	fs.Float64Var(&o.loss, "loss", 0, "-fig loss: evaluate this single control-frame loss rate instead of the 0–30% sweep")
	fs.Float64Var(&o.burst, "burst", 1, "-fig loss: mean loss-burst length in frames (>1 switches to Gilbert–Elliott bursts)")
	fs.BoolVar(&o.skipPlus, "skip-copa-plus", false, "skip the mercury/water-filling (COPA+) variants, a second evaluation pass per topology")
	fs.IntVar(&o.workers, "workers", 0, "bound parallel topology evaluation (0 = GOMAXPROCS)")
	fs.StringVar(&o.out, "out", "", "directory to also write CSV data files and report.html into")
	dbg := cliflags.Debug(fs)
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	execTrace := fs.String("exec-trace", "", "write a runtime execution trace to this file")
	_ = fs.Parse(args)
	o.seed = *seed
	// Ctrl-C (or SIGTERM) cancels the context the experiment harness
	// runs under: the current figure aborts between topologies instead
	// of the process dying mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	logger := obs.Logger()
	stopDebug, err := dbg.Start()
	if err != nil {
		logger.Error("debug server failed", "addr", dbg.Addr, "err", err)
		return 1
	}
	defer stopDebug()
	for _, p := range []struct {
		flag, path string
		start      func(io.Writer) error
		stop       func()
	}{
		{"cpuprofile", *cpuProfile, pprof.StartCPUProfile, pprof.StopCPUProfile},
		{"exec-trace", *execTrace, trace.Start, trace.Stop},
	} {
		if p.path == "" {
			continue
		}
		f, err := os.Create(p.path)
		if err != nil {
			logger.Error(p.flag+" failed", "err", err)
			return 1
		}
		defer f.Close()
		if err := p.start(f); err != nil {
			logger.Error(p.flag+" failed", "err", err)
			return 1
		}
		defer p.stop()
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
	// (campaign.run and its campaign.unit children, testbed.figure14,
	// ...) nest under.
	ctx, root := obs.StartSpan(ctx, "cli.sim")
	defer root.End()

	if o.out != "" {
		o.report = newReport(o.seed, o.topologies)
	}
	failed := false
	matched := false
	for _, f := range figures {
		if *fig != "all" && *fig != f.name {
			continue
		}
		matched = true
		if failed {
			continue
		}
		fmt.Printf("\n===== %s =====\n", f.title)
		logger.Debug("reproducing", "figure", f.name, "seed", o.seed, "topologies", o.topologies)
		sp := obs.ChildSpan(ctx, "cli.sim.figure")
		sp.SetAttr("figure", f.name)
		fctx := ctx
		if sp != nil {
			fctx = obs.ContextWithSpan(ctx, sp.Context())
		}
		err := f.run(fctx, o)
		sp.EndErr(err)
		if err != nil {
			logger.Error("figure failed", "figure", f.name, "err", err)
			failed = true
		}
	}
	if !matched {
		logger.Error("unknown figure", "fig", *fig)
		fmt.Fprintln(os.Stderr, "valid figures: "+figureNames())
		return 2
	}
	if failed {
		return 1
	}
	if o.report != nil {
		if err := o.report.write(o.out); err != nil {
			logger.Error("report failed", "err", err)
			return 1
		}
	}
	return 0
}

// figure is one entry of the figure table: its -fig name, the banner
// printed above its output, and the function that reproduces it.
type figure struct {
	name, title string
	run         func(context.Context, *opts) error
}

// figures drives -fig: the help text, the "valid figures" error, the
// banners, and the -fig all order.
var figures = []figure{
	{"2", "Figure 2", printFigure2},
	{"3", "Figure 3", printFigure3},
	{"4", "Figure 4", printFigure4},
	{"table1", "Table 1: MAC overhead", printTable1},
	{"7", "Figure 7", printFigure7},
	{"9", "Figure 9", printFigure9},
	{"10", "Figure 10", scenarioFigure(10, "Figure 10 (1x1)", channel.Scenario1x1, 0)},
	{"11", "Figure 11", scenarioFigure(11, "Figure 11 (4x2)", channel.Scenario4x2, 0)},
	{"12", "Figure 12", scenarioFigure(12, "Figure 12 (4x2, interference −10 dB)", channel.Scenario4x2, -10)},
	{"13", "Figure 13", scenarioFigure(13, "Figure 13 (3x2)", channel.Scenario3x2, 0)},
	{"14", "Figure 14", printFigure14},
	{"headlines", "Headline claims (§1)", printHeadlines},
	{"accuracy", "Strategy prediction accuracy (§3.3)", printAccuracy},
	{"backlog", "Backlog drain (§3.5)", printBacklog},
	{"loss", "Throughput vs control-frame loss", printLossSweep},
	{"mobility", "Realized aggregate throughput vs client speed", printMobility},
	{"its", "ITS control frames: wire sizes and CSI compression", printITS},
	{"dcf", "DCF fairness with a COPA pair (§3.1)", printDCF},
	{"cluster", "Cluster fairness under the full ITS protocol (§3.1)", printCluster},
}

// figureNames lists the valid -fig values, comma-separated.
func figureNames() string {
	names := make([]string, 0, len(figures)+1)
	for _, f := range figures {
		names = append(names, f.name)
	}
	return strings.Join(append(names, "all"), ",")
}

// opts carries the flags the figures read, and the -out sinks.
type opts struct {
	seed        int64
	topologies  int
	loss, burst float64
	mob         *cliflags.MobilityFlags
	skipPlus    bool
	// workers is the campaign worker count of Figs. 10–13 and the
	// headlines (0 = GOMAXPROCS). It never changes results, only wall
	// time.
	workers int
	// out, when non-empty, receives a CSV per printed figure and
	// report.html; report is nil without it.
	out    string
	report *report
}

// export runs a figure's CSV writer against -out, if set.
func (o *opts) export(write func(dir string) error) error {
	if o.out == "" {
		return nil
	}
	return write(o.out)
}

func printFigure2(_ context.Context, o *opts) error {
	f := testbed.RunFigure2(o.seed)
	o.report.figure2(f)
	fmt.Println("subcarrier  ant1(dBm)  ant2(dBm)")
	for k := range f.PowerDBm[0] {
		fmt.Printf("%10d  %9.1f  %9.1f\n", k, f.PowerDBm[0][k], f.PowerDBm[1][k])
	}
	return o.export(f.ExportCSV)
}

func printFigure3(_ context.Context, o *opts) error {
	f := testbed.RunFigure3(o.seed, o.topologies)
	o.report.figure3(f)
	fmt.Printf("INR reduction : %+6.1f dB (σ %.1f)   [paper: ≈−27 dB]\n", f.INRReductionMeanDB, f.INRReductionStdDB)
	fmt.Printf("SNR reduction : %+6.1f dB (σ %.1f)   [paper: ≈−8 dB]\n", f.SNRReductionMeanDB, f.SNRReductionStdDB)
	fmt.Printf("SINR increase : %+6.1f dB (σ %.1f)   [paper: ≈+18 dB]\n", f.SINRIncreaseMeanDB, f.SINRIncreaseStdDB)
	return o.export(f.ExportCSV)
}

func printFigure4(_ context.Context, o *opts) error {
	f := testbed.RunFigure4(o.seed)
	o.report.figure4(f)
	fmt.Println("subcarrier  SNR-BF  SNR-Null  SINR-Null  (dB)")
	for k := range f.SNRBFDB {
		fmt.Printf("%10d  %6.1f  %8.1f  %9.1f\n", k, f.SNRBFDB[k], f.SNRNullDB[k], f.SINRNullDB[k])
	}
	return o.export(f.ExportCSV)
}

func printTable1(_ context.Context, o *opts) error {
	rows := testbed.Table1()
	o.report.table1(rows)
	fmt.Println("coherence   COPA-Conc  COPA-Seq  CSMA-CTS  CSMA-RTS/CTS   (% of TXOP)")
	for _, r := range rows {
		fmt.Printf("%9s   %8.1f%%  %7.1f%%  %7.1f%%  %11.1f%%\n",
			r.Coherence, r.COPAConc*100, r.COPASeq*100, r.CSMACTS*100, r.CSMARTS*100)
	}
	fmt.Println("paper @4ms: 9.3 / 7.7 / 2.7 / 3.7 · @30ms: 5.1 / 3.5 · @1000ms: 4.5 / 2.8")
	return o.export(testbed.ExportTable1CSV)
}

func printFigure7(_ context.Context, o *opts) error {
	f := testbed.RunFigure7(o.seed)
	o.report.figure7(f)
	if len(f.BERCOPA) == 0 {
		fmt.Println("(nulling infeasible on this draw; try another seed)")
		return nil
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
	return o.export(f.ExportCSV)
}

func printFigure9(_ context.Context, o *opts) error {
	f := testbed.RunFigure9(o.seed, o.topologies)
	o.report.figure9(f)
	fmt.Println("signal(dBm)  interference(dBm)")
	for i := range f.SignalDBm {
		fmt.Printf("%11.1f  %17.1f\n", f.SignalDBm[i], f.InterferenceDBm[i])
	}
	return o.export(f.ExportCSV)
}

// scenarioFigure reproduces one of Figs. 10–13: the per-scheme
// throughput summary of one antenna scenario.
func scenarioFigure(fig int, name string, sc channel.Scenario, deltaDB float64) func(context.Context, *opts) error {
	return func(ctx context.Context, o *opts) error {
		cfg := testbed.DefaultConfig(o.seed)
		cfg.Topologies = o.topologies
		cfg.InterferenceDeltaDB = deltaDB
		cfg.SkipCOPAPlus = o.skipPlus
		cfg.MaxParallel = o.workers
		res, err := testbed.RunScenario(ctx, sc, cfg)
		if err != nil {
			return err
		}
		o.report.scenario(fig, res)
		fmt.Printf("%s — mean aggregate throughput over %d topologies\n", name, o.topologies)
		testbed.WriteSummary(os.Stdout, res, campaign.DefaultProfile, 0)
		return o.export(func(dir string) error { return testbed.ExportCampaignCSV(dir, res) })
	}
}

func printFigure14(ctx context.Context, o *opts) error {
	f, err := testbed.RunFigure14(ctx, o.seed, o.topologies)
	if err != nil {
		return err
	}
	o.report.figure14(f)
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
	return o.export(f.ExportCSV)
}

func printAccuracy(ctx context.Context, o *opts) error {
	acc, err := testbed.RunPredictionAccuracy(ctx, o.seed, o.topologies)
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

func printBacklog(_ context.Context, o *opts) error {
	loads := []float64{20e6, 40e6, 55e6, 70e6}
	var worst [3][]float64 // per load, for CSMA, COPA and COPA fair
	for _, l := range loads {
		cmp, err := testbed.RunBacklogComparison(o.seed, l, 2500)
		if err != nil {
			return err
		}
		for i, d := range [3][2]float64{cmp.CSMADelaySec, cmp.COPADelaySec, cmp.COPAFairDelaySec} {
			w := d[0]
			if d[1] > w {
				w = d[1]
			}
			worst[i] = append(worst[i], w)
		}
	}
	fmt.Println("worst-client mean frame delay (ms) vs per-client offered load:")
	fmt.Printf("  %-10s", "scheme")
	for _, l := range loads {
		fmt.Printf("  %5.0fM", l/1e6)
	}
	fmt.Println()
	for i, name := range []string{"CSMA", "COPA", "COPA fair"} {
		fmt.Printf("  %-10s", name)
		for _, w := range worst[i] {
			if w > 1e6 {
				fmt.Printf("  %6s", "inf")
			} else {
				fmt.Printf("  %6.1f", w*1e3)
			}
		}
		fmt.Println()
	}
	return nil
}

func printLossSweep(ctx context.Context, o *opts) error {
	cfg := testbed.DefaultLossSweepConfig(o.seed)
	// The sweep is exchange-by-exchange (not batch-evaluated), so cap the
	// population to keep -fig all fast.
	if o.topologies < cfg.Topologies {
		cfg.Topologies = o.topologies
	}
	cfg.MeanBurst = o.burst
	if o.loss > 0 {
		cfg.LossRates = []float64{o.loss}
	}
	sweep, err := testbed.RunLossSweep(ctx, channel.Scenario4x2, cfg)
	if err != nil {
		return err
	}
	kind := "i.i.d."
	if o.burst > 1 {
		kind = fmt.Sprintf("Gilbert–Elliott, mean burst %.1f", o.burst)
	}
	fmt.Printf("4x2, %d topologies, %s loss — realized aggregate vs ITS frame loss\n", cfg.Topologies, kind)
	fmt.Printf("CSMA baseline: %.1f Mb/s\n", sweep.MeanCSMABps()/1e6)
	fmt.Println("  loss   aggregate   fallback  retries/exch  ctrl-bytes")
	for _, p := range sweep.Points {
		fmt.Printf("  %3.0f%%  %7.1f Mb/s  %7.1f%%  %12.2f  %10.0f\n",
			p.Loss*100, p.AggregateBps/1e6, p.FallbackRate*100, p.RetriesPerExchange, p.ControlBytesPerExchange)
	}
	fmt.Println("fail-safe contract: a follower that heard no verdict defers\n  loss   deferred  disagree")
	for _, p := range sweep.Points {
		fmt.Printf("  %3.0f%%  %7.1f%%  %7.1f%%\n", p.Loss*100, p.DeferRate*100, p.DisagreeRate*100)
	}
	return o.export(sweep.ExportCSV)
}

func printHeadlines(ctx context.Context, o *opts) error {
	cfg := testbed.DefaultConfig(o.seed)
	cfg.Topologies = o.topologies
	cfg.SkipCOPAPlus = true
	cfg.MaxParallel = o.workers
	res, err := testbed.RunScenario(ctx, channel.Scenario4x2, cfg)
	if err != nil {
		return err
	}
	hs := testbed.Headlines(res, campaign.DefaultProfile, 0)
	fmt.Printf("Null loses to CSMA           : %s  [paper: 83%%]\n", pct("%5.1f", hs.NullLosesToCSMA))
	fmt.Printf("COPA over Null (where loses) : %s  [paper: +64%%]\n", pct("%+5.1f", hs.COPAOverNullWhereNullLoses))
	fmt.Printf("COPA beats CSMA (same set)   : %s  [paper: 76%%]\n", pct("%5.1f", hs.COPABeatsCSMAWhereNullLoses))
	fmt.Printf("Null win median (where wins) : %s  [paper: +12%%]\n", pct("%+5.1f", hs.NullWinMedian))
	fmt.Printf("COPA win median (same set)   : %s  [paper: +45%%]\n", pct("%+5.1f", hs.COPAWinMedianWhereNullWins))
	fmt.Printf("price of fairness            : %s  [paper: ≈3–6%%]\n", pct("%5.1f", hs.PriceOfFairness))
	return nil
}

// pct formats a fraction as a percentage, or as n/a when it is NaN (a
// headline statistic whose conditioning set is empty).
func pct(format string, v float64) string {
	if math.IsNaN(v) {
		return "  n/a"
	}
	return fmt.Sprintf(format+"%%", v*100)
}

func printMobility(ctx context.Context, o *opts) error {
	if err := o.mob.Validate(); err != nil {
		return err
	}
	cfg := testbed.DefaultMobilityConfig(o.seed)
	// The sweep runs a full controller per cell; cap the population to
	// keep -fig all fast.
	if o.topologies < cfg.Topologies {
		cfg.Topologies = o.topologies
	}
	cfg.SpeedsMps = o.mob.Speeds(testbed.DefaultSpeeds())
	cfg.ThresholdsDB = []float64{o.mob.ThresholdDB}
	cfg.Duration = o.mob.Duration
	cfg.Step = o.mob.Step
	cfg.ReassocPerSec = o.mob.ReassocPerSec
	cfg.ChurnPerSec = o.mob.ChurnPerSec
	sweep, err := testbed.RunMobilitySweep(ctx, channel.Scenario4x2, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("4x2, %d topologies, %v per cell — realized aggregate vs client speed (threshold %.1f dB)\n",
		cfg.Topologies, cfg.Duration, o.mob.ThresholdDB)
	fmt.Println("  speed     aggregate   renegs/s  incr/s  revoked/s  delta-share")
	for _, p := range sweep.Points {
		fmt.Printf("  %5.1f m/s %7.1f Mb/s  %7.2f  %6.2f  %9.2f  %10.1f%%\n",
			p.SpeedMps, p.AggregateBps/1e6, p.RenegsPerSec, p.IncrementalPerSec,
			p.CertRevocationsPerSec, p.DeltaByteShare*100)
	}
	return o.export(sweep.ExportCSV)
}
