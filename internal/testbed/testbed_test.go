package testbed

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"testing"
	"time"

	"copa/internal/campaign"
	"copa/internal/channel"
	"copa/internal/ofdm"
	"copa/internal/rng"
	"copa/internal/strategy"
)

func TestStats(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if Mean(xs) != 2.5 {
		t.Errorf("mean %g", Mean(xs))
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 {
		t.Error("empty-input stats should be 0")
	}
	sd := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(sd-2) > 1e-12 {
		t.Errorf("stddev %g, want 2", sd)
	}
}

// TestCDF checks the figure-facing CDF of a campaign column: sorted
// bucket midpoints (within 0.39% of the samples) whose probabilities
// climb by one sample each and end at 1.
func TestCDF(t *testing.T) {
	col := campaign.NewColumn()
	for _, v := range []float64{3, 1, 2} {
		col.Add(v)
	}
	res := &campaign.Result{Columns: map[string]*campaign.Column{"x": col}}
	pts := CampaignCDF(res, "x")
	if len(pts) != 3 {
		t.Fatalf("CDF length %d", len(pts))
	}
	for i, want := range []float64{1, 2, 3} {
		if rel := math.Abs(pts[i].Value-want) / want; rel > 1.0/256 {
			t.Errorf("point %d at %g, want %g", i, pts[i].Value, want)
		}
		if p := float64(i+1) / 3; math.Abs(pts[i].P-p) > 1e-12 {
			t.Errorf("point %d has P %g, want %g", i, pts[i].P, p)
		}
	}
	if CampaignCDF(res, "absent") != nil {
		t.Error("an absent column has a CDF")
	}
}

// scenarioColumn returns a RunScenario result's column for one scheme or
// headline statistic.
func scenarioColumn(res *campaign.Result, name string) *campaign.Column {
	return res.SchemeColumn(campaign.DefaultProfile, 0, name)
}

func TestRunScenarioSmoke4x2(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.Topologies = 6
	cfg.SkipCOPAPlus = true
	res, err := RunScenario(context.Background(), channel.Scenario4x2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []string{SchemeCSMA, SchemeCOPASeq, SchemeNull, SchemeCOPA, SchemeCOPAFair} {
		col := scenarioColumn(res, scheme)
		if col == nil || col.N != 6 {
			t.Fatalf("%s column %+v, want 6 samples", scheme, col)
		}
		if lo, hi := col.Sketch.Quantile(0), col.Sketch.Quantile(1); lo < 0 || hi > 600e6 {
			t.Fatalf("%s throughput range [%g, %g] implausible", scheme, lo, hi)
		}
	}
	if n := scenarioColumn(res, campaign.HeadlineNullLoses).N; n != 6 {
		t.Errorf("null-loses indicator has %d samples, want one per topology", n)
	}
	// COPA (max mode) must never fall below COPA-SEQ on predictions, so
	// on aggregate means it should at least match the baseline closely.
	copa, seq := scenarioColumn(res, SchemeCOPA).Mean, scenarioColumn(res, SchemeCOPASeq).Mean
	if copa < seq*0.95 {
		t.Errorf("COPA %.1f << COPA-SEQ %.1f", copa/1e6, seq/1e6)
	}
}

func TestRunScenarioCancelled(t *testing.T) {
	// Already-cancelled context: the run must abort with ctx.Err()
	// without evaluating the population.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := DefaultConfig(3)
	cfg.Topologies = 64
	cfg.SkipCOPAPlus = true
	start := time.Now()
	if _, err := RunScenario(ctx, channel.Scenario4x2, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// 64 4x2 topologies take tens of seconds; an aborted run must not.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled run still took %v", elapsed)
	}

	// Deadline mid-run: same contract via the other cancellation path.
	dctx, dcancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer dcancel()
	<-dctx.Done()
	if _, err := RunScenario(dctx, channel.Scenario4x2, cfg); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestRunScenarioDeterministic checks that two identical runs, at
// different worker counts, serialize to the same bytes.
func TestRunScenarioDeterministic(t *testing.T) {
	cfg := DefaultConfig(9)
	cfg.Topologies = 3
	cfg.SkipCOPAPlus = true
	var runs [2][]byte
	for i, workers := range []int{1, 3} {
		cfg.MaxParallel = workers
		res, err := RunScenario(context.Background(), channel.Scenario1x1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if runs[i], err = json.Marshal(res); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(runs[0], runs[1]) {
		t.Fatal("identical scenario runs differ")
	}
}

func TestRunScenario1x1HasNoNulling(t *testing.T) {
	cfg := DefaultConfig(5)
	cfg.Topologies = 3
	cfg.SkipCOPAPlus = true
	res, err := RunScenario(context.Background(), channel.Scenario1x1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{SchemeNull, campaign.HeadlineNullLoses} {
		if scenarioColumn(res, name) != nil {
			t.Errorf("1x1 must not produce a %s column", name)
		}
	}
	if hs := Headlines(res, campaign.DefaultProfile, 0); !math.IsNaN(hs.NullLosesToCSMA) {
		t.Errorf("1x1 null-loses fraction %g, want NaN", hs.NullLosesToCSMA)
	}
}

// headlineResult folds per-topology scheme outcomes into a one-cell
// result through the same builder campaign.EvalUnit uses.
func headlineResult(outs ...map[string]float64) *campaign.Result {
	ur := &campaign.UnitResult{Columns: make(map[string]*campaign.Column)}
	for _, out := range outs {
		ur.AddTopology(campaign.DefaultProfile, 0, out)
	}
	return &campaign.Result{Columns: ur.Columns}
}

func TestHeadlinesMath(t *testing.T) {
	// Four topologies: Null loses on the first two, wins on the last
	// two; COPA beats CSMA on one of the two losers.
	topo := func(csma, null, copa, fair float64) map[string]float64 {
		return map[string]float64{SchemeCSMA: csma, SchemeNull: null, SchemeCOPA: copa, SchemeCOPAFair: fair}
	}
	hs := Headlines(headlineResult(
		topo(100, 50, 110, 100),
		topo(100, 80, 90, 90),
		topo(100, 120, 130, 120),
		topo(100, 150, 160, 150),
	), campaign.DefaultProfile, 0)
	if hs.NullLosesToCSMA != 0.5 {
		t.Errorf("lose fraction %g", hs.NullLosesToCSMA)
	}
	if hs.COPABeatsCSMAWhereNullLoses != 0.5 {
		t.Errorf("beat fraction %g", hs.COPABeatsCSMAWhereNullLoses)
	}
	// COPA over Null where null loses: mean(110/50−1, 90/80−1) = mean(1.2, .125)
	want := (1.2 + 0.125) / 2
	if math.Abs(hs.COPAOverNullWhereNullLoses-want) > 1e-12 {
		t.Errorf("gain %g want %g", hs.COPAOverNullWhereNullLoses, want)
	}
	// Medians come off the sketch: the bucket midpoint of the
	// nearest-rank sample (rank q·(n−1) = 0.5 → the lower of two), so
	// within half a bucket (1/256 relative) of it. Null's edges where
	// it wins are {0.2, 0.5}; COPA's are {0.3, 0.6}.
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"null win median", hs.NullWinMedian, 0.2},
		{"COPA win median", hs.COPAWinMedianWhereNullWins, 0.3},
	} {
		if rel := math.Abs(c.got-c.want) / c.want; rel > 1.0/256 {
			t.Errorf("%s %g, want %g within half a bucket", c.name, c.got, c.want)
		}
	}
	// 1 − mean(fair)/mean(COPA) = 1 − 115/122.5.
	if want := 1 - 115.0/122.5; math.Abs(hs.PriceOfFairness-want) > 1e-12 {
		t.Errorf("price of fairness %g, want %g", hs.PriceOfFairness, want)
	}
}

// TestHeadlinesEmptyConditionalSetIsNaN: a statistic conditioned on
// Null winning (or losing) has no sample where Null never wins (or
// loses), and must read NaN rather than a fabricated +0%.
func TestHeadlinesEmptyConditionalSetIsNaN(t *testing.T) {
	loses := Headlines(headlineResult(
		map[string]float64{SchemeCSMA: 100, SchemeNull: 50, SchemeCOPA: 110, SchemeCOPAFair: 100},
	), campaign.DefaultProfile, 0)
	if loses.NullLosesToCSMA != 1 || !math.IsNaN(loses.NullWinMedian) || !math.IsNaN(loses.COPAWinMedianWhereNullWins) {
		t.Errorf("Null never wins: lose fraction %g, win medians %g, %g; want 1, NaN, NaN",
			loses.NullLosesToCSMA, loses.NullWinMedian, loses.COPAWinMedianWhereNullWins)
	}
	wins := Headlines(headlineResult(
		map[string]float64{SchemeCSMA: 100, SchemeNull: 150, SchemeCOPA: 160, SchemeCOPAFair: 150},
	), campaign.DefaultProfile, 0)
	if wins.NullLosesToCSMA != 0 || !math.IsNaN(wins.COPAOverNullWhereNullLoses) || !math.IsNaN(wins.COPABeatsCSMAWhereNullLoses) {
		t.Errorf("Null never loses: lose fraction %g, loser statistics %g, %g; want 0, NaN, NaN",
			wins.NullLosesToCSMA, wins.COPAOverNullWhereNullLoses, wins.COPABeatsCSMAWhereNullLoses)
	}
}

func TestFigure2Shape(t *testing.T) {
	f := RunFigure2(1)
	for a := 0; a < 2; a++ {
		if len(f.PowerDBm[a]) != ofdm.NumSubcarriers {
			t.Fatalf("antenna %d has %d subcarriers", a, len(f.PowerDBm[a]))
		}
	}
	// Narrow-band fading must be visible (Fig. 2 shows ≳15 dB swings).
	min, max := math.Inf(1), math.Inf(-1)
	for _, v := range f.PowerDBm[0] {
		min, max = math.Min(min, v), math.Max(max, v)
	}
	if max-min < 6 {
		t.Errorf("fading spread %.1f dB too flat", max-min)
	}
	// Powers are in a plausible indoor receive range.
	if max > -20 || min < -120 {
		t.Errorf("power range [%.1f, %.1f] dBm implausible", min, max)
	}
}

func TestFigure3Calibration(t *testing.T) {
	f := RunFigure3(1, 12)
	// The paper's Fig. 3: INR reduction ≈ −27 dB, SNR reduction negative
	// but smaller, SINR increase positive.
	if f.INRReductionMeanDB > -20 || f.INRReductionMeanDB < -35 {
		t.Errorf("INR reduction %.1f dB, want ≈ −27", f.INRReductionMeanDB)
	}
	if f.SNRReductionMeanDB >= 0 || f.SNRReductionMeanDB < -15 {
		t.Errorf("SNR reduction %.1f dB, want moderately negative", f.SNRReductionMeanDB)
	}
	if f.SINRIncreaseMeanDB <= 0 {
		t.Errorf("SINR increase %.1f dB, want positive", f.SINRIncreaseMeanDB)
	}
	// Ordering: the SINR gain is smaller than the INR reduction because
	// of collateral damage.
	if -f.INRReductionMeanDB < f.SINRIncreaseMeanDB {
		t.Error("SINR increase cannot exceed INR reduction")
	}
}

func TestFigure4Shape(t *testing.T) {
	f := RunFigure4(1)
	if len(f.SNRBFDB) != ofdm.NumSubcarriers {
		t.Fatal("wrong subcarrier count")
	}
	// Nulling costs SNR on average and concurrent SINR is below solo SNR.
	if Mean(f.SNRNullDB) >= Mean(f.SNRBFDB) {
		t.Error("nulling should reduce own-signal SNR")
	}
	if Mean(f.SINRNullDB) > Mean(f.SNRNullDB)+1e-9 {
		t.Error("interference cannot raise SINR above SNR")
	}
	// Nulling increases variability across subcarriers (the paper's core
	// observation).
	if StdDev(f.SINRNullDB) < StdDev(f.SNRBFDB) {
		t.Errorf("nulling should increase SINR variance: BF σ=%.1f, null σ=%.1f",
			StdDev(f.SNRBFDB), StdDev(f.SINRNullDB))
	}
}

func TestFigure7COPAWins(t *testing.T) {
	f := RunFigure7(1)
	if len(f.BERCOPA) == 0 {
		t.Skip("nulling infeasible on this seed")
	}
	if f.COPAMbps <= f.NoPAMbps {
		t.Errorf("COPA %.1f ≤ NoPA %.1f Mb/s; power allocation should win", f.COPAMbps, f.NoPAMbps)
	}
	drops := 0
	for _, d := range f.Dropped {
		if d {
			drops++
		}
	}
	if drops == 0 {
		t.Error("expected COPA to drop at least one subcarrier on a nulled concurrent link")
	}
	if f.COPAMCS.Index <= f.NoPAMCS.Index {
		t.Errorf("COPA should reach a higher bitrate: %v vs %v", f.COPAMCS, f.NoPAMCS)
	}
}

func TestFigure9Envelope(t *testing.T) {
	f := RunFigure9(1, 30)
	if len(f.SignalDBm) != 60 {
		t.Fatalf("%d points, want 60", len(f.SignalDBm))
	}
	below := 0
	for i := range f.SignalDBm {
		if f.SignalDBm[i] < -70 || f.SignalDBm[i] > -30 {
			t.Errorf("signal %.1f dBm out of Fig. 9's range", f.SignalDBm[i])
		}
		if f.InterferenceDBm[i] < f.SignalDBm[i] {
			below++
		}
	}
	frac := float64(below) / float64(len(f.SignalDBm))
	if frac < 0.6 || frac > 0.99 {
		t.Errorf("interference below signal at %.0f%%; want usually but not always", frac*100)
	}
}

func TestTable1RowCount(t *testing.T) {
	rows := Table1()
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// Paper's qualitative content: COPA costs more than CSMA, overheads
	// shrink with coherence time.
	for _, r := range rows {
		if r.COPAConc <= r.CSMACTS || r.COPASeq <= r.CSMACTS {
			t.Error("COPA overhead should exceed CSMA's")
		}
	}
	if rows[0].COPAConc <= rows[2].COPAConc {
		t.Error("overhead should fall with longer coherence")
	}
}

func TestFigure14MultiDecoderHelps(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	f, err := RunFigure14(context.Background(), 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []string{"1x1", "4x2", "3x2"} {
		m := f.Improvement[sc]
		if len(m) != len(Figure14Schemes) {
			t.Fatalf("%s has %d schemes", sc, len(m))
		}
		// N decoders can only help a scheme relative to its 1-decoder
		// self (allow small sampling noise).
		if m["COPA N decoders"] < m["COPA 1 decoder"]-3 {
			t.Errorf("%s: N-decoder COPA %+.1f%% below 1-decoder %+.1f%%",
				sc, m["COPA N decoders"], m["COPA 1 decoder"])
		}
		if m["CSMA N decoders"] < -3 {
			t.Errorf("%s: multi-decoder CSMA fell below CSMA: %+.1f%%", sc, m["CSMA N decoders"])
		}
	}
}

func BenchmarkTopologyPipeline4x2(b *testing.B) {
	cfg := DefaultConfig(1)
	cfg.Topologies = 1
	cfg.SkipCOPAPlus = true
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := RunScenario(context.Background(), channel.Scenario4x2, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPredictionAccuracy(t *testing.T) {
	acc, err := RunPredictionAccuracy(context.Background(), 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Sequential strategies predict well (no concurrent interference to
	// misjudge); concurrent nulling is the hard one (§3.3).
	seqMAE := acc.MAEByKind[strategy.KindCOPASeq]
	nullMAE := acc.MAEByKind[strategy.KindConcNull]
	if seqMAE > 0.25 {
		t.Errorf("COPA-SEQ prediction MAE %.2f too large", seqMAE)
	}
	if nullMAE < seqMAE {
		t.Errorf("concurrent nulling (%.2f) should be harder to predict than sequential (%.2f)",
			nullMAE, seqMAE)
	}
	if acc.MispickRate < 0 || acc.MispickRate > 1 {
		t.Errorf("mispick rate %g", acc.MispickRate)
	}
	t.Logf("MAE seq=%.2f null=%.2f, mispicks %.0f%% costing %.0f%%",
		seqMAE, nullMAE, acc.MispickRate*100, acc.MispickCostMean*100)
}

func TestSeedRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	cfg := DefaultConfig(1)
	cfg.Topologies = 8
	cfg.SkipCOPAPlus = true
	rob, err := RunSeedRobustness(context.Background(), channel.Scenario4x2, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	// The central ordering must hold for every seed batch on average,
	// and the spread must be small relative to the effect size.
	copa := rob.MeanOfMeans[SchemeCOPA]
	csma := rob.MeanOfMeans[SchemeCSMA]
	null := rob.MeanOfMeans[SchemeNull]
	if !(copa > csma && csma > null) {
		t.Errorf("ordering unstable across seeds: COPA %.1f, CSMA %.1f, Null %.1f Mb/s",
			copa/1e6, csma/1e6, null/1e6)
	}
	if rob.StdOfMeans[SchemeCOPA] > 0.25*copa {
		t.Errorf("COPA mean varies %.1f%% across seeds", rob.StdOfMeans[SchemeCOPA]/copa*100)
	}
}

func TestWeakInterferenceShrinksFairnessGap(t *testing.T) {
	// §4.4: "There is little difference between COPA and COPA Fair
	// because both clients normally win from running COPA" once
	// interference is 10 dB weaker. Verify the fair/max gap shrinks (or
	// stays negligible) relative to the strong-interference case.
	cfg := DefaultConfig(11)
	cfg.Topologies = 10
	cfg.SkipCOPAPlus = true
	strong, err := RunScenario(context.Background(), channel.Scenario4x2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.InterferenceDeltaDB = -10
	weak, err := RunScenario(context.Background(), channel.Scenario4x2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sm := func(scheme string) float64 { return scenarioColumn(strong, scheme).Mean }
	wm := func(scheme string) float64 { return scenarioColumn(weak, scheme).Mean }
	gs, gw := sm(SchemeCOPA)-sm(SchemeCOPAFair), wm(SchemeCOPA)-wm(SchemeCOPAFair)
	t.Logf("fair/max gap: strong %.1f Mb/s, weak %.1f Mb/s", gs/1e6, gw/1e6)
	if gw > gs+2e6 {
		t.Errorf("weak interference should not widen the fairness gap: %.1f vs %.1f Mb/s",
			gw/1e6, gs/1e6)
	}
	// And COPA's gains grow with weaker interference (Fig. 12 vs 11).
	if wm(SchemeCOPA) <= sm(SchemeCOPA) {
		t.Error("COPA should gain from weaker interference")
	}
	if wm(SchemeNull) <= sm(SchemeNull) {
		t.Error("vanilla nulling should gain from weaker interference")
	}
}

func TestPerfectHardwareMakesNullingDominant(t *testing.T) {
	// With ideal radios (no CSI error, no staleness, no EVM), nulling is
	// exact and concurrent transmission should essentially always win —
	// the regime prior work assumed and §2.2 argues does not exist in
	// practice.
	cfg := DefaultConfig(13)
	cfg.Topologies = 8
	cfg.SkipCOPAPlus = true
	cfg.Impairments = channel.PerfectHardware()
	res, err := RunScenario(context.Background(), channel.Scenario4x2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Strict wins (Null > CSMA) need the per-topology pairs: re-evaluate
	// each topology on the stream RunScenario gives it.
	nullWins, nullLoses := 0, 0
	for i := 0; i < cfg.Topologies; i++ {
		dep := channel.DeploymentAt(cfg.Seed, channel.Scenario4x2, i)
		out, err := campaign.EvaluateTopology(dep, cfg.Impairments, rng.NewSub(cfg.Seed^0x5eed, uint64(i)),
			campaign.EvalOptions{SkipCOPAPlus: true})
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case out[SchemeNull] > out[SchemeCSMA]:
			nullWins++
		case out[SchemeNull] < out[SchemeCSMA]:
			nullLoses++
		}
	}
	if got, want := Headlines(res, campaign.DefaultProfile, 0).NullLosesToCSMA, float64(nullLoses)/float64(cfg.Topologies); got != want {
		t.Fatalf("re-evaluated population differs from the run's: null loses on %g, run says %g", want, got)
	}
	if frac := float64(nullWins) / float64(cfg.Topologies); frac < 0.7 {
		t.Errorf("with perfect hardware vanilla nulling won only %.0f%% of topologies", frac*100)
	}
	copa, csma := scenarioColumn(res, SchemeCOPA).Mean, scenarioColumn(res, SchemeCSMA).Mean
	if copa < csma*1.3 {
		t.Errorf("perfect-hardware COPA should crush CSMA: %.1f vs %.1f Mb/s", copa/1e6, csma/1e6)
	}
}
