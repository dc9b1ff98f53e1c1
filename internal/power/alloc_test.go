package power

import (
	"math"
	"testing"
	"testing/quick"

	"copa/internal/channel"
	"copa/internal/ofdm"
)

// flatCoefs builds a coefficient vector with the given per-subcarrier
// SINR-per-mW values repeated/specified.
func flatCoefs(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func budgetOf(a Allocation) float64 {
	var s float64
	for _, p := range a.PowerMW {
		s += p
	}
	return s
}

func TestNoPAEqualSplit(t *testing.T) {
	coef := flatCoefs(100, ofdm.NumSubcarriers)
	a := NoPA(coef, 31.6)
	if math.Abs(budgetOf(a)-31.6) > 1e-9 {
		t.Errorf("budget %g", budgetOf(a))
	}
	for _, p := range a.PowerMW {
		if math.Abs(p-31.6/ofdm.NumSubcarriers) > 1e-12 {
			t.Errorf("unequal split: %g", p)
		}
	}
	if a.Dropped != 0 {
		t.Errorf("NoPA dropped %d", a.Dropped)
	}
}

func TestEquiSNRFlatChannelKeepsAll(t *testing.T) {
	// On a flat channel there is nothing to gain from dropping.
	coef := flatCoefs(1e4, ofdm.NumSubcarriers)
	a := EquiSNR(coef, 31.6)
	if a.Dropped != 0 {
		t.Errorf("flat channel dropped %d subcarriers", a.Dropped)
	}
	if math.Abs(budgetOf(a)-31.6) > 1e-6 {
		t.Errorf("budget %g", budgetOf(a))
	}
	// Equalized: all SINRs identical.
	first := a.PowerMW[0] * coef[0]
	for k, p := range a.PowerMW {
		if math.Abs(p*coef[k]-first) > 1e-9*first {
			t.Fatalf("SINR not equalized at %d", k)
		}
	}
}

func TestEquiSNRDropsCatastrophicSubcarriers(t *testing.T) {
	// A few disastrous subcarriers should be dropped, enabling a far
	// higher rate on the rest (the Fig. 7 effect).
	coef := flatCoefs(channel.DBToLinear(35)/0.6, ofdm.NumSubcarriers)
	for i := 0; i < 6; i++ {
		coef[i*7] = channel.DBToLinear(-4) / 0.6 // ~39 dB below the rest
	}
	a := EquiSNR(coef, 31.6)
	if a.Dropped < 4 || a.Dropped > 10 {
		t.Errorf("dropped %d subcarriers, want ≈6", a.Dropped)
	}
	nopa := NoPA(coef, 31.6)
	if a.Rate.GoodputBps <= nopa.Rate.GoodputBps {
		t.Errorf("EquiSNR %.1f Mb/s <= NoPA %.1f Mb/s",
			a.Rate.GoodputBps/1e6, nopa.Rate.GoodputBps/1e6)
	}
	if a.Rate.MCS.Index <= nopa.Rate.MCS.Index {
		t.Errorf("EquiSNR should enable a higher bitrate: %v vs %v", a.Rate.MCS, nopa.Rate.MCS)
	}
	// Dropped subcarriers really carry zero power.
	zero := 0
	for _, p := range a.PowerMW {
		if p == 0 {
			zero++
		}
	}
	if zero != a.Dropped {
		t.Errorf("Dropped=%d but %d zero-power subcarriers", a.Dropped, zero)
	}
}

func TestEquiSNREqualizesOnKept(t *testing.T) {
	coef := make([]float64, ofdm.NumSubcarriers)
	for i := range coef {
		coef[i] = channel.DBToLinear(float64(20 + i%15))
	}
	a := EquiSNR(coef, 31.6)
	var target float64
	for k, p := range a.PowerMW {
		if p > 0 {
			s := p * coef[k]
			if target == 0 {
				target = s
			} else if math.Abs(s-target) > 1e-6*target {
				t.Fatalf("kept subcarrier %d SINR %g != %g", k, s, target)
			}
		}
	}
}

func TestEquiSNRBudgetNeverExceeded(t *testing.T) {
	f := func(seed uint32) bool {
		coef := make([]float64, ofdm.NumSubcarriers)
		x := float64(seed%97) + 1
		for i := range coef {
			x = math.Mod(x*1.37+float64(i), 40)
			coef[i] = channel.DBToLinear(x)
		}
		a := EquiSNR(coef, 31.6)
		return budgetOf(a) <= 31.6*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestEquiSNRAllZeroCoefs(t *testing.T) {
	a := EquiSNR(flatCoefs(0, 10), 5)
	if len(a.PowerMW) != 10 {
		t.Fatal("allocation shape wrong")
	}
	// Falls back to equal split; rate is zero but structure is sound.
	if math.Abs(budgetOf(a)-5) > 1e-9 {
		t.Errorf("budget %g", budgetOf(a))
	}
}

func TestWaterfillProperties(t *testing.T) {
	coef := make([]float64, ofdm.NumSubcarriers)
	for i := range coef {
		coef[i] = channel.DBToLinear(float64(10 + (i*11)%25))
	}
	a := Waterfill(coef, 31.6)
	if math.Abs(budgetOf(a)-31.6) > 1e-3 {
		t.Errorf("budget %g", budgetOf(a))
	}
	// Waterfilling gives more power to better subcarriers... of the ones
	// it uses, the implied water level p_k + 1/g_k is constant.
	var level float64
	for k, p := range a.PowerMW {
		if p > 0 {
			l := p + 1/coef[k]
			if level == 0 {
				level = l
			} else if math.Abs(l-level) > 1e-6*level {
				t.Fatalf("water level varies: %g vs %g", l, level)
			}
		}
	}
}

func TestWaterfillDropsHopelessSubcarriers(t *testing.T) {
	coef := flatCoefs(1e3, 10)
	coef[0] = 1e-9 // 1/g enormous: below water level
	a := Waterfill(coef, 1.0)
	if a.PowerMW[0] != 0 {
		t.Errorf("hopeless subcarrier got power %g", a.PowerMW[0])
	}
	if a.Dropped != 1 {
		t.Errorf("dropped = %d", a.Dropped)
	}
}

func TestMMSEFunctionShape(t *testing.T) {
	for _, m := range []ofdm.Modulation{ofdm.BPSK, ofdm.QPSK, ofdm.QAM16, ofdm.QAM64} {
		if v := MMSE(m, 0); math.Abs(v-1) > 0.02 {
			t.Errorf("%v: mmse(0) = %g, want 1 (unit-energy constellation)", m, v)
		}
		prev := math.Inf(1)
		for _, g := range []float64{0.01, 0.1, 1, 10, 100, 1000} {
			v := MMSE(m, g)
			if v > prev+1e-9 {
				t.Errorf("%v: mmse not decreasing at γ=%g", m, g)
			}
			if v < 0 {
				t.Errorf("%v: negative mmse %g", m, v)
			}
			prev = v
		}
		if v := MMSE(m, 5000); v > 0.05 {
			t.Errorf("%v: mmse(5000) = %g, should be ≈0", m, v)
		}
	}
	// BPSK detects more reliably than 64-QAM at the same SNR.
	if MMSE(ofdm.BPSK, 5) >= MMSE(ofdm.QAM64, 5) {
		t.Error("BPSK mmse should be below 64-QAM mmse at γ=5")
	}
}

func TestMMSEInverse(t *testing.T) {
	for _, m := range []ofdm.Modulation{ofdm.BPSK, ofdm.QAM64} {
		for _, v := range []float64{0.9, 0.5, 0.1, 0.01} {
			g := tableFor(m).inverse(v)
			if got := MMSE(m, g); math.Abs(got-v) > 0.02 {
				t.Errorf("%v: mmse(mmse⁻¹(%g)) = %g", m, v, got)
			}
		}
		if tableFor(m).inverse(1.5) != 0 {
			t.Error("inverse above 1 should clamp to 0")
		}
	}
}

func TestMercuryWaterfillBudgetAndCutoff(t *testing.T) {
	coef := make([]float64, ofdm.NumSubcarriers)
	for i := range coef {
		coef[i] = channel.DBToLinear(float64(5 + (i*13)%30))
	}
	coef[3] = 1e-12 // essentially dead subcarrier
	a := MercuryWaterfill(ofdm.QAM16, coef, 31.6)
	if math.Abs(budgetOf(a)-31.6) > 0.05*31.6 {
		t.Errorf("budget %g, want ≈31.6", budgetOf(a))
	}
	if a.PowerMW[3] != 0 {
		t.Errorf("dead subcarrier powered: %g", a.PowerMW[3])
	}
	if a.Dropped < 1 {
		t.Error("expected the dead subcarrier dropped")
	}
}

func TestMercuryBeatsNoPAOnDispersedChannel(t *testing.T) {
	coef := make([]float64, ofdm.NumSubcarriers)
	for i := range coef {
		coef[i] = channel.DBToLinear(float64(8 + (i*17)%28))
	}
	nopa := NoPA(coef, 31.6)
	merc := MercuryBest(coef, 31.6)
	if merc.Rate.GoodputBps < nopa.Rate.GoodputBps {
		t.Errorf("mercury %.1f < NoPA %.1f Mb/s",
			merc.Rate.GoodputBps/1e6, nopa.Rate.GoodputBps/1e6)
	}
}

func TestMercuryAllDead(t *testing.T) {
	a := MercuryWaterfill(ofdm.QPSK, flatCoefs(0, 8), 4)
	if len(a.PowerMW) != 8 {
		t.Fatal("bad shape")
	}
}
