package power

import (
	"math"
	"testing"

	"copa/internal/channel"
	"copa/internal/precoding"
	"copa/internal/rng"
)

// pairCSI builds a 4x2-style two-sender test rig with beamforming or
// nulling precoders on the estimated channels.
func pairCSI(t *testing.T, seed int64, null bool) ([2]SenderCSI, Config) {
	t.Helper()
	src := rng.New(seed)
	h11 := channel.NewLink(src.Split(1), 2, 4, channel.DBToLinear(-65))
	h12 := channel.NewLink(src.Split(2), 2, 4, channel.DBToLinear(-72))
	h21 := channel.NewLink(src.Split(3), 2, 4, channel.DBToLinear(-70))
	h22 := channel.NewLink(src.Split(4), 2, 4, channel.DBToLinear(-64))

	var p1, p2 *precoding.Precoder
	var err error
	if null {
		if p1, err = precoding.Nulling(h11, h12, 2); err != nil {
			t.Fatal(err)
		}
		if p2, err = precoding.Nulling(h22, h21, 2); err != nil {
			t.Fatal(err)
		}
	} else {
		if p1, err = precoding.Beamforming(h11, 2); err != nil {
			t.Fatal(err)
		}
		if p2, err = precoding.Beamforming(h22, 2); err != nil {
			t.Fatal(err)
		}
	}
	budget := channel.TotalTxBudgetMW()
	senders := [2]SenderCSI{
		{Own: h11, Cross: h12, Precoder: p1, BudgetMW: budget},
		{Own: h22, Cross: h21, Precoder: p2, BudgetMW: budget},
	}
	cfg := DefaultConfig()
	return senders, cfg
}

func TestSequentialRespectsbudget(t *testing.T) {
	src := rng.New(31)
	h := channel.NewLink(src, 2, 4, channel.DBToLinear(-68))
	p, err := precoding.Beamforming(h, 2)
	if err != nil {
		t.Fatal(err)
	}
	res := Sequential(SenderCSI{Own: h, Precoder: p, BudgetMW: channel.TotalTxBudgetMW()}, DefaultConfig())
	if len(res.Tx) != 1 {
		t.Fatalf("tx count %d", len(res.Tx))
	}
	total := res.Tx[0].TotalPowerMW()
	if total > channel.TotalTxBudgetMW()*(1+1e-6) {
		t.Errorf("budget exceeded: %g", total)
	}
	if res.Goodput[0] <= 0 {
		t.Error("no goodput on a healthy link")
	}
	if len(res.StreamRates[0]) != 2 {
		t.Errorf("stream rates %d", len(res.StreamRates[0]))
	}
}

func TestSequentialBeatsNoPA(t *testing.T) {
	// Across several channels, COPA-SEQ's allocation should never lose
	// to the status quo equal split (it starts from and subsumes it).
	for seed := int64(0); seed < 8; seed++ {
		src := rng.New(100 + seed)
		h := channel.NewLink(src, 2, 4, channel.DBToLinear(-69))
		p, err := precoding.Beamforming(h, 2)
		if err != nil {
			t.Fatal(err)
		}
		budget := channel.TotalTxBudgetMW()
		cfg := DefaultConfig()
		res := Sequential(SenderCSI{Own: h, Precoder: p, BudgetMW: budget}, cfg)

		eq := precoding.NewTransmission(p, precoding.EqualSplit(len(h.Subcarriers), 2, budget), cfg.Impairments)
		nopa := GoodputFor(h, eq, nil, nil, cfg.NoisePerSCMW)
		if res.Goodput[0] < nopa*0.999 {
			t.Errorf("seed %d: COPA-SEQ %.1f < NoPA %.1f Mb/s", seed,
				res.Goodput[0]/1e6, nopa/1e6)
		}
	}
}

func TestConcurrentConverges(t *testing.T) {
	senders, cfg := pairCSI(t, 41, true)
	res := Concurrent(senders, cfg)
	if res.Iterations < 1 {
		t.Error("did not iterate")
	}
	for i := 0; i < 2; i++ {
		if res.Tx[i].TotalPowerMW() > senders[i].BudgetMW*(1+1e-6) {
			t.Errorf("sender %d exceeded budget", i)
		}
	}
	if res.Aggregate() <= 0 {
		t.Error("zero aggregate on healthy links")
	}
}

func TestConcurrentImprovesOnEqualSplit(t *testing.T) {
	wins, total := 0, 0
	for seed := int64(0); seed < 6; seed++ {
		senders, cfg := pairCSI(t, 200+seed, true)
		res := Concurrent(senders, cfg)

		// Baseline: both senders equal-split with the same precoders.
		nSC := len(senders[0].Own.Subcarriers)
		tx1 := precoding.NewTransmission(senders[0].Precoder, precoding.EqualSplit(nSC, 2, senders[0].BudgetMW), cfg.Impairments)
		tx2 := precoding.NewTransmission(senders[1].Precoder, precoding.EqualSplit(nSC, 2, senders[1].BudgetMW), cfg.Impairments)
		base := GoodputFor(senders[0].Own, tx1, senders[1].Cross, tx2, cfg.NoisePerSCMW) +
			GoodputFor(senders[1].Own, tx2, senders[0].Cross, tx1, cfg.NoisePerSCMW)

		total++
		if res.Aggregate() >= base*0.999 {
			wins++
		}
	}
	if wins < total-1 {
		t.Errorf("Equi-SINR beat equal split in only %d/%d rigs", wins, total)
	}
}

func TestConcurrentBestSolutionMemory(t *testing.T) {
	// The returned result must be at least as good as the first iterate
	// (best-solution memory; the iteration may regress but the result
	// may not).
	senders, cfg := pairCSI(t, 77, true)
	cfg.MaxIters = 1
	one := Concurrent(senders, cfg)
	cfg.MaxIters = 12
	many := Concurrent(senders, cfg)
	if many.Aggregate() < one.Aggregate()*0.999 {
		t.Errorf("more iterations made the kept solution worse: %.1f vs %.1f Mb/s",
			many.Aggregate()/1e6, one.Aggregate()/1e6)
	}
}

func TestConcurrentWithMercuryInner(t *testing.T) {
	senders, cfg := pairCSI(t, 55, true)
	cfg.Inner = MercuryBest
	cfg.MaxIters = 4
	res := Concurrent(senders, cfg)
	if res.Aggregate() <= 0 {
		t.Error("COPA+ inner produced zero goodput")
	}
	for i := 0; i < 2; i++ {
		if res.Tx[i].TotalPowerMW() > senders[i].BudgetMW*1.05 {
			t.Errorf("sender %d budget: %g", i, res.Tx[i].TotalPowerMW())
		}
	}
}

func TestConcurrentDropsCreateLeakageOnly(t *testing.T) {
	senders, cfg := pairCSI(t, 91, true)
	res := Concurrent(senders, cfg)
	for i, tx := range res.Tx {
		for k, ps := range tx.PowerMW {
			var tot float64
			for _, p := range ps {
				tot += p
			}
			if tot == 0 {
				leak := channel.DBToLinear(channel.LeakageFloorDB) * channel.TxBudgetPerSubcarrierMW() / 4
				if math.Abs(tx.TxNoiseVarMW[k]-leak) > 1e-18 {
					t.Fatalf("sender %d subcarrier %d: leakage %g, want %g", i, k, tx.TxNoiseVarMW[k], leak)
				}
			}
		}
	}
}

func BenchmarkConcurrentEquiSINR(b *testing.B) {
	src := rng.New(7)
	h11 := channel.NewLink(src.Split(1), 2, 4, channel.DBToLinear(-65))
	h12 := channel.NewLink(src.Split(2), 2, 4, channel.DBToLinear(-72))
	h21 := channel.NewLink(src.Split(3), 2, 4, channel.DBToLinear(-70))
	h22 := channel.NewLink(src.Split(4), 2, 4, channel.DBToLinear(-64))
	p1, _ := precoding.Nulling(h11, h12, 2)
	p2, _ := precoding.Nulling(h22, h21, 2)
	budget := channel.TotalTxBudgetMW()
	senders := [2]SenderCSI{
		{Own: h11, Cross: h12, Precoder: p1, BudgetMW: budget},
		{Own: h22, Cross: h21, Precoder: p2, BudgetMW: budget},
	}
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Concurrent(senders, cfg)
	}
}
