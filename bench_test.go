// Benchmarks that regenerate every table and figure of the COPA paper's
// evaluation. Each benchmark prints its full reproduction once (the same
// rows/series the paper reports, with the paper's numbers alongside) and
// then times the per-topology pipeline underlying it.
//
// Run all of them with:
//
//	go test -bench=. -benchmem
package copa

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"copa/internal/campaign"
	"copa/internal/channel"
	"copa/internal/power"
	"copa/internal/rng"
	"copa/internal/strategy"
	"copa/internal/testbed"
)

// benchSeed keeps every benchmark's testbed identical run to run.
const benchSeed = 1

// benchTopologies mirrors the paper's 30-topology populations.
const benchTopologies = 30

var printOnce sync.Map

// once runs f a single time per key across the whole bench run.
func once(key string, f func()) {
	o, _ := printOnce.LoadOrStore(key, &sync.Once{})
	o.(*sync.Once).Do(f)
}

// timeOneTopology is the standard timed unit: evaluate every strategy on
// one 4×2 topology.
func timeOneTopology(b *testing.B, sc channel.Scenario) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := rng.New(int64(i))
		dep := channel.NewDeployment(src.Split(1), sc)
		ev := strategy.NewEvaluator(dep, channel.DefaultImpairments(), src.Split(2))
		if _, err := ev.EvaluateAll(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure2(b *testing.B) {
	once("fig2", func() {
		f := testbed.RunFigure2(benchSeed)
		min, max := f.PowerDBm[0][0], f.PowerDBm[0][0]
		for a := 0; a < 2; a++ {
			for _, v := range f.PowerDBm[a] {
				if v < min {
					min = v
				}
				if v > max {
					max = v
				}
			}
		}
		fmt.Printf("\n[Figure 2] per-subcarrier received power: %.1f…%.1f dBm (spread %.1f dB; paper shows ≈±15 dB swings)\n",
			min, max, max-min)
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		testbed.RunFigure2(int64(i))
	}
}

func BenchmarkFigure3(b *testing.B) {
	once("fig3", func() {
		f := testbed.RunFigure3(benchSeed, benchTopologies)
		fmt.Printf("\n[Figure 3] nulling end-to-end: INR %+0.1f dB (paper ≈−27) · SNR %+0.1f dB (paper ≈−8) · SINR %+0.1f dB (paper ≈+18)\n",
			f.INRReductionMeanDB, f.SNRReductionMeanDB, f.SINRIncreaseMeanDB)
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		testbed.RunFigure3(int64(i), 3)
	}
}

func BenchmarkFigure4(b *testing.B) {
	once("fig4", func() {
		f := testbed.RunFigure4(benchSeed)
		mean := func(xs []float64) float64 { return testbed.Mean(xs) }
		fmt.Printf("\n[Figure 4] per-subcarrier means: SNR-BF %.1f dB, SNR-Null %.1f dB, SINR-Null %.1f dB (min %.1f)\n",
			mean(f.SNRBFDB), mean(f.SNRNullDB), mean(f.SINRNullDB), slices.Min(f.SINRNullDB))
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		testbed.RunFigure4(int64(i))
	}
}

func BenchmarkTable1(b *testing.B) {
	once("table1", func() {
		rows := testbed.Table1()
		fmt.Printf("\n[Table 1] MAC overhead %% (paper: conc 9.3/5.1/4.5, seq 7.7/3.5/2.8, CTS 2.7, RTS 3.7)\n")
		for _, r := range rows {
			fmt.Printf("  tc=%-6s conc %.1f%%  seq %.1f%%  cts %.1f%%  rts %.1f%%\n",
				r.Coherence, r.COPAConc*100, r.COPASeq*100, r.CSMACTS*100, r.CSMARTS*100)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		testbed.Table1()
	}
}

func BenchmarkFigure7(b *testing.B) {
	once("fig7", func() {
		f := testbed.RunFigure7(benchSeed)
		drops := 0
		for _, d := range f.Dropped {
			if d {
				drops++
			}
		}
		fmt.Printf("\n[Figure 7] same nulling precoder: COPA %s %.1f Mb/s (drops %d subcarriers) vs NoPA %s %.1f Mb/s (paper: 32.4 vs 12.6, 8 drops)\n",
			f.COPAMCS, f.COPAMbps, drops, f.NoPAMCS, f.NoPAMbps)
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		testbed.RunFigure7(int64(i))
	}
}

func BenchmarkFigure9(b *testing.B) {
	once("fig9", func() {
		f := testbed.RunFigure9(benchSeed, benchTopologies)
		below := 0
		for i := range f.SignalDBm {
			if f.InterferenceDBm[i] < f.SignalDBm[i] {
				below++
			}
		}
		fmt.Printf("\n[Figure 9] topology scatter: signal %.0f…%.0f dBm; interference below signal at %d/%d clients (paper: most, not all)\n",
			slices.Min(f.SignalDBm), slices.Max(f.SignalDBm),
			below, len(f.SignalDBm))
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		testbed.RunFigure9(int64(i), 5)
	}
}

// scenarioBench prints one of the Fig. 10–13 scheme tables and times the
// per-topology pipeline.
func scenarioBench(b *testing.B, key, label string, sc channel.Scenario, deltaDB float64, paper map[string]float64) {
	once(key, func() {
		cfg := testbed.DefaultConfig(benchSeed)
		cfg.Topologies = benchTopologies
		cfg.InterferenceDeltaDB = deltaDB
		res, err := testbed.RunScenario(context.Background(), sc, cfg)
		if err != nil {
			fmt.Printf("%s: %v\n", label, err)
			return
		}
		fmt.Printf("\n[%s] mean aggregate throughput, %d topologies:\n", label, benchTopologies)
		for _, row := range testbed.CampaignSummary(res, campaign.DefaultProfile, 0) {
			ref := ""
			if p, ok := paper[row.Scheme]; ok {
				ref = fmt.Sprintf("   [paper %.1f]", p)
			}
			fmt.Printf("  %-10s %6.1f Mb/s%s\n", row.Scheme, row.MeanBps/1e6, ref)
		}
	})
	timeOneTopology(b, sc)
}

func BenchmarkFigure10(b *testing.B) {
	scenarioBench(b, "fig10", "Figure 10: 1x1", channel.Scenario1x1, 0, testbed.PaperMeansMbps[10])
}

func BenchmarkFigure11(b *testing.B) {
	scenarioBench(b, "fig11", "Figure 11: 4x2 constrained", channel.Scenario4x2, 0, testbed.PaperMeansMbps[11])
}

func BenchmarkFigure12(b *testing.B) {
	scenarioBench(b, "fig12", "Figure 12: 4x2, interference −10 dB", channel.Scenario4x2, -10, testbed.PaperMeansMbps[12])
}

func BenchmarkFigure13(b *testing.B) {
	scenarioBench(b, "fig13", "Figure 13: 3x2 overconstrained", channel.Scenario3x2, 0, testbed.PaperMeansMbps[13])
}

func BenchmarkFigure14(b *testing.B) {
	once("fig14", func() {
		f, err := testbed.RunFigure14(context.Background(), benchSeed, 12)
		if err != nil {
			fmt.Printf("figure 14: %v\n", err)
			return
		}
		fmt.Printf("\n[Figure 14] %% improvement over 1-decoder CSMA (paper: multi-decoder helps CSMA in 1x1, COPA gains ≈10%%/5%% in 4x2/3x2):\n")
		for _, scheme := range testbed.Figure14Schemes {
			fmt.Printf("  %-22s", scheme)
			for _, sc := range []string{"1x1", "4x2", "3x2"} {
				fmt.Printf("  %s %+6.1f%%", sc, f.Improvement[sc][scheme])
			}
			fmt.Println()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Timed unit: one topology evaluated under both decoder models.
		src := rng.New(int64(i))
		dep := channel.NewDeployment(src.Split(1), channel.Scenario4x2)
		for _, multi := range []bool{false, true} {
			ev := strategy.NewEvaluator(dep, channel.DefaultImpairments(), src.Split(2))
			ev.MultiDecoder = multi
			if _, err := ev.EvaluateAll(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkHeadlines(b *testing.B) {
	once("headlines", func() {
		cfg := testbed.DefaultConfig(benchSeed)
		cfg.Topologies = benchTopologies
		cfg.SkipCOPAPlus = true
		res, err := testbed.RunScenario(context.Background(), channel.Scenario4x2, cfg)
		if err != nil {
			fmt.Printf("headlines: %v\n", err)
			return
		}
		hs := testbed.Headlines(res, campaign.DefaultProfile, 0)
		fmt.Printf("\n[§1 headlines] Null loses to CSMA %.0f%% (paper 83%%) · COPA over Null %+0.0f%% (paper +64%%) · COPA beats CSMA %.0f%% (paper 76%%)\n",
			hs.NullLosesToCSMA*100, hs.COPAOverNullWhereNullLoses*100, hs.COPABeatsCSMAWhereNullLoses*100)
	})
	timeOneTopology(b, channel.Scenario4x2)
}

// Ablation benches (DESIGN.md §5): design choices the paper motivates.

func BenchmarkAblationEquiSINRIterations(b *testing.B) {
	once("ablIters", func() {
		var out string
		for _, iters := range []int{1, 2, 4, 12} {
			master := rng.New(benchSeed)
			var agg float64
			n := 10
			for t := 0; t < n; t++ {
				src := master.Split(uint64(t))
				dep := channel.NewDeployment(src.Split(1), channel.Scenario4x2)
				ev := strategy.NewEvaluator(dep, channel.DefaultImpairments(), src.Split(2))
				ev.Alloc.MaxIters = iters
				outs, err := ev.EvaluateAll()
				if err != nil {
					continue
				}
				agg += strategy.Select(strategy.ModeMax, outs).Aggregate()
			}
			out += fmt.Sprintf("  iters=%-2d COPA %.1f Mb/s\n", iters, agg/float64(n)/1e6)
		}
		fmt.Printf("\n[Ablation] Equi-SINR iteration count (Fig. 6 loop):\n%s", out)
	})
	timeOneTopology(b, channel.Scenario4x2)
}

func BenchmarkAblationDropVsAlloc(b *testing.B) {
	once("ablDropAlloc", func() {
		// §4.2: "either one, by itself gives about 60-70% of the
		// improvement, but both are needed together for the full
		// benefits" — measured on the 1x1 scenario, COPA-SEQ vs CSMA.
		inners := []struct {
			name  string
			inner power.InnerAllocator
		}{
			{"both (Equi-SNR)", power.EquiSNR},
			{"drop-only", power.DropOnly},
			{"equalize-only", power.EqualizeOnly},
		}
		master := rng.New(benchSeed)
		const n = 20
		deps := make([]*channel.Deployment, n)
		for t := 0; t < n; t++ {
			deps[t] = channel.NewDeployment(master.Split(uint64(t)), channel.Scenario1x1)
		}
		var csma float64
		gains := make([]float64, len(inners))
		for t, dep := range deps {
			for i, in := range inners {
				ev := strategy.NewEvaluator(dep, channel.DefaultImpairments(), rng.New(int64(t)))
				ev.Alloc.Inner = in.inner
				base, err := ev.EvaluateCSMA()
				if err != nil {
					continue
				}
				seq, err := ev.EvaluateCOPASeq()
				if err != nil {
					continue
				}
				if i == 0 {
					csma += base.Aggregate()
				}
				gains[i] += seq.Aggregate() - base.Aggregate()
			}
		}
		fmt.Printf("\n[Ablation] subcarrier selection vs power shaping (1x1, COPA-SEQ gain over CSMA %.1f Mb/s):\n", csma/n/1e6)
		for i, in := range inners {
			frac := 100.0
			if gains[0] > 0 {
				frac = gains[i] / gains[0] * 100
			}
			fmt.Printf("  %-17s %+6.2f Mb/s  (%.0f%% of the full gain; paper: each alone ≈60-70%%)\n",
				in.name, gains[i]/n/1e6, frac)
		}
	})
	timeOneTopology(b, channel.Scenario1x1)
}

func BenchmarkAblationCSMABaseline(b *testing.B) {
	once("ablCSMABase", func() {
		// How much of the CSMA baseline's strength comes from implicit
		// beamforming? Compare against stock direct-mapped streams.
		master := rng.New(benchSeed)
		const n = 15
		var bf, dm float64
		for t := 0; t < n; t++ {
			dep := channel.NewDeployment(master.Split(uint64(t)), channel.Scenario4x2)
			ev := strategy.NewEvaluator(dep, channel.DefaultImpairments(), rng.New(int64(t)))
			a, err := ev.EvaluateCSMA()
			if err != nil {
				continue
			}
			c, err := ev.EvaluateCSMADirectMap()
			if err != nil {
				continue
			}
			bf += a.Aggregate()
			dm += c.Aggregate()
		}
		fmt.Printf("\n[Ablation] CSMA baseline precoding (4x2): beamformed %.1f Mb/s vs direct-mapped %.1f Mb/s\n",
			bf/n/1e6, dm/n/1e6)
	})
	timeOneTopology(b, channel.Scenario4x2)
}

func BenchmarkAblationFairness(b *testing.B) {
	once("ablFair", func() {
		cfg := testbed.DefaultConfig(benchSeed)
		cfg.Topologies = 20
		cfg.SkipCOPAPlus = true
		var lines string
		for _, sc := range []channel.Scenario{channel.Scenario1x1, channel.Scenario4x2, channel.Scenario3x2} {
			res, err := testbed.RunScenario(context.Background(), sc, cfg)
			if err != nil {
				continue
			}
			max := res.SchemeColumn(campaign.DefaultProfile, 0, testbed.SchemeCOPA).Mean
			fair := res.SchemeColumn(campaign.DefaultProfile, 0, testbed.SchemeCOPAFair).Mean
			lines += fmt.Sprintf("  %-4s COPA %.1f vs fair %.1f Mb/s (price %.1f%%)\n",
				sc.Name, max/1e6, fair/1e6, (1-fair/max)*100)
		}
		fmt.Printf("\n[Ablation] price of incentive compatibility (§3.5):\n%s", lines)
	})
	timeOneTopology(b, channel.Scenario4x2)
}

func BenchmarkAblationCoherenceTime(b *testing.B) {
	once("ablCoherence", func() {
		m := testbed.Table1()
		_ = m
		var lines string
		for _, tc := range []time.Duration{4 * time.Millisecond, 30 * time.Millisecond, 200 * time.Millisecond, time.Second} {
			master := rng.New(benchSeed)
			var agg float64
			n := 10
			for t := 0; t < n; t++ {
				src := master.Split(uint64(t))
				dep := channel.NewDeployment(src.Split(1), channel.Scenario4x2)
				ev := strategy.NewEvaluator(dep, channel.DefaultImpairments(), src.Split(2))
				ev.Coherence = tc
				outs, err := ev.EvaluateAll()
				if err != nil {
					continue
				}
				agg += strategy.Select(strategy.ModeMax, outs).Aggregate()
			}
			lines += fmt.Sprintf("  tc=%-6s COPA %.1f Mb/s\n", tc, agg/float64(n)/1e6)
		}
		fmt.Printf("\n[Ablation] ITS overhead vs coherence time:\n%s", lines)
	})
	timeOneTopology(b, channel.Scenario4x2)
}

func BenchmarkPredictionAccuracy(b *testing.B) {
	once("predAcc", func() {
		acc, err := testbed.RunPredictionAccuracy(context.Background(), benchSeed, 20)
		if err != nil {
			fmt.Printf("prediction accuracy: %v\n", err)
			return
		}
		fmt.Printf("\n[Analysis] prediction gap (§3.3 \"not so easy\"): COPA-SEQ MAE %.0f%%, Conc-Null MAE %.0f%%, mispicks %.0f%% costing %.0f%% each\n",
			acc.MAEByKind[strategy.KindCOPASeq]*100, acc.MAEByKind[strategy.KindConcNull]*100,
			acc.MispickRate*100, acc.MispickCostMean*100)
	})
	timeOneTopology(b, channel.Scenario4x2)
}

func BenchmarkSeedRobustness(b *testing.B) {
	once("robust", func() {
		cfg := testbed.DefaultConfig(benchSeed)
		cfg.Topologies = 10
		cfg.SkipCOPAPlus = true
		rob, err := testbed.RunSeedRobustness(context.Background(), channel.Scenario4x2, cfg, 3)
		if err != nil {
			fmt.Printf("robustness: %v\n", err)
			return
		}
		fmt.Printf("\n[Analysis] across-seed stability (3 seeds × 10 topologies):\n")
		for _, scheme := range []string{testbed.SchemeCSMA, testbed.SchemeNull, testbed.SchemeCOPA} {
			fmt.Printf("  %-6s %.1f ± %.1f Mb/s\n", scheme,
				rob.MeanOfMeans[scheme]/1e6, rob.StdOfMeans[scheme]/1e6)
		}
	})
	timeOneTopology(b, channel.Scenario4x2)
}

func BenchmarkBacklogDrain(b *testing.B) {
	once("backlog", func() {
		// §3.5: "clears any transmission backlog fastest" — sweep offered
		// load per client and find where each scheme's queues blow up.
		fmt.Printf("\n[Extension] backlog drain (§3.5): worst-client mean frame delay (ms) vs offered load.\n")
		fmt.Printf("  Max mode may starve the weaker client (∞) — the reason fair mode exists:\n")
		fmt.Printf("  %-12s", "load (Mb/s)")
		loads := []float64{20e6, 40e6, 55e6, 70e6}
		for _, l := range loads {
			fmt.Printf("  %6.0f", l/1e6)
		}
		fmt.Println()
		type row struct {
			name string
			get  func(testbed.BacklogComparison) [2]float64
		}
		for _, r := range []row{
			{"CSMA", func(c testbed.BacklogComparison) [2]float64 { return c.CSMADelaySec }},
			{"COPA (max)", func(c testbed.BacklogComparison) [2]float64 { return c.COPADelaySec }},
			{"COPA fair", func(c testbed.BacklogComparison) [2]float64 { return c.COPAFairDelaySec }},
		} {
			fmt.Printf("  %-12s", r.name)
			for _, l := range loads {
				cmp, err := testbed.RunBacklogComparison(benchSeed+2, l, 2500)
				if err != nil {
					fmt.Printf("  %6s", "err")
					continue
				}
				d := r.get(cmp)
				worst := d[0]
				if d[1] > worst {
					worst = d[1]
				}
				if worst > 1e6 {
					fmt.Printf("  %6s", "∞")
				} else {
					fmt.Printf("  %6.1f", worst*1e3)
				}
			}
			fmt.Println()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := testbed.RunBacklogComparison(int64(i), 30e6, 500); err != nil {
			b.Fatal(err)
		}
	}
}
