package power

import (
	"math"
	"testing"

	"copa/internal/channel"
	"copa/internal/ofdm"
	"copa/internal/precoding"
	"copa/internal/rng"
)

// mercuryEquivTol is the kernel-tolerance tier's relative bound (DESIGN
// §13) between the closed-form mercury kernel and its bisection oracle.
const mercuryEquivTol = 1e-9

func relClose(a, b, tol float64) bool {
	return a == b || math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// inverseGrid returns a dense set of v values for one table: every node,
// eight interior points of every segment (midpoint included), both
// neighbours of every value repeated by the monotonicity clamp, and
// points on and beyond both clamps.
func inverseGrid(t *mmseTable) (vs []float64, flatRuns int) {
	last := len(t.mmse) - 1
	vs = append(vs, 1.5, t.mmse[0], t.mmse[last], t.mmse[last]/2)
	for j := 1; j <= last; j++ {
		m0, m1 := t.mmse[j-1], t.mmse[j]
		vs = append(vs, m1)
		for k := 1; k < 8; k++ {
			vs = append(vs, m0+float64(k)/8*(m1-m0))
		}
		if m1 == m0 {
			flatRuns++
			vs = append(vs, math.Nextafter(m1, 2), math.Nextafter(m1, 0))
		}
	}
	return vs, flatRuns
}

// TestMMSEInverseMatchesOracle checks the closed-form inverse against
// the bisection oracle on every constellation's dense v grid.
func TestMMSEInverseMatchesOracle(t *testing.T) {
	for _, m := range constellations {
		tab := tableFor(m)
		vs, flat := inverseGrid(tab)
		for _, v := range vs {
			got, want := tab.inverse(v), mmseInverseOracle(m, v)
			if !relClose(got, want, mercuryEquivTol) {
				t.Errorf("%v: inverse(%g) = %.17g, oracle %.17g", m, v, got, want)
			}
		}
		t.Logf("%v: %d v values, %d clamped flat segments", m, len(vs), flat)
	}
}

// TestMMSEInverseInvertsInterpolant checks MMSE(inverse(v)) = v at
// every segment interior point.
func TestMMSEInverseInvertsInterpolant(t *testing.T) {
	for _, m := range constellations {
		tab := tableFor(m)
		for j := 1; j < len(tab.mmse); j++ {
			m0, m1 := tab.mmse[j-1], tab.mmse[j]
			if m0 == m1 {
				continue
			}
			v := (m0 + m1) / 2
			if got := MMSE(m, tableFor(m).inverse(v)); !relClose(got, v, 1e-12) {
				t.Errorf("%v segment %d: MMSE(inverse(%g)) = %g", m, j, v, got)
			}
		}
	}
}

// TestMMSETableBitEqualToOracleIntegrand proves the single-exp integrand
// tabulates every snr and mmse entry to the same bits as the original.
func TestMMSETableBitEqualToOracleIntegrand(t *testing.T) {
	for _, m := range constellations {
		got, want := tableFor(m), buildTable(m, pamMMSEOracle)
		for i := range want.snr {
			if math.Float64bits(got.snr[i]) != math.Float64bits(want.snr[i]) ||
				math.Float64bits(got.mmse[i]) != math.Float64bits(want.mmse[i]) {
				t.Fatalf("%v entry %d: (%v, %v), oracle (%v, %v)",
					m, i, got.snr[i], got.mmse[i], want.snr[i], want.mmse[i])
			}
		}
	}
}

// real4x2Columns records the coefficient columns the COPA+ iteration
// (MercuryBest inner, three sweeps) hands its inner allocator on one
// 4x2 deployment, with beamforming and with nulling precoders on the
// true channels.
func real4x2Columns(tb testing.TB) (cols [][]float64, budgets []float64) {
	tb.Helper()
	sc := channel.Scenario4x2
	dep := channel.DeploymentAt(7, sc, 0)
	for _, null := range []bool{false, true} {
		var senders [2]SenderCSI
		for s := 0; s < 2; s++ {
			own, cross := dep.H[s][s], dep.H[s][1-s]
			var p *precoding.Precoder
			var err error
			if null {
				p, err = precoding.Nulling(own, cross, sc.Streams)
			} else {
				p, err = precoding.Beamforming(own, sc.Streams)
			}
			if err != nil {
				tb.Fatal(err)
			}
			senders[s] = SenderCSI{Own: own, Cross: cross, Precoder: p, BudgetMW: channel.TotalTxBudgetMW()}
		}
		cfg := DefaultConfig()
		cfg.MaxIters = 3
		cfg.Inner = func(coef []float64, budgetMW float64) Allocation {
			cols = append(cols, append([]float64(nil), coef...))
			budgets = append(budgets, budgetMW)
			return MercuryBest(coef, budgetMW)
		}
		Concurrent(senders, cfg)
	}
	return cols, budgets
}

// TestMercuryBestMatchesOracle compares the closed-form MercuryBest with
// the bisection oracle on real 4x2 coefficient columns: same MCS and
// drop count, powers within the kernel tolerance.
func TestMercuryBestMatchesOracle(t *testing.T) {
	cols, budgets := real4x2Columns(t)
	if len(cols) == 0 {
		t.Fatal("no coefficient columns recorded")
	}
	for c, coef := range cols {
		got, want := MercuryBest(coef, budgets[c]), mercuryBestOracle(coef, budgets[c])
		if got.Rate.MCS != want.Rate.MCS || got.Dropped != want.Dropped {
			t.Fatalf("column %d: MCS %v dropped %d, oracle MCS %v dropped %d",
				c, got.Rate.MCS, got.Dropped, want.Rate.MCS, want.Dropped)
		}
		for k := range want.PowerMW {
			if !relClose(got.PowerMW[k], want.PowerMW[k], mercuryEquivTol) {
				t.Fatalf("column %d subcarrier %d: power %.17g, oracle %.17g",
					c, k, got.PowerMW[k], want.PowerMW[k])
			}
		}
	}
	t.Logf("%d columns match", len(cols))
}

// TestMercuryWaterfillDegenerateInputs pins the written contract for
// non-finite, empty and all-dead coefficient vectors.
func TestMercuryWaterfillDegenerateInputs(t *testing.T) {
	with := func(c []float64, k int, v float64) []float64 {
		c[k] = v
		return c
	}
	const budget = 31.6
	cases := []struct {
		name string
		coef []float64
		dead []int // subcarriers that must get zero power
		// spends reports whether the whole budget must be spent.
		spends  bool
		dropped int
	}{
		{"one NaN", with(flatCoefs(100, 8), 3, math.NaN()), []int{3}, true, 1},
		{"one +Inf", with(flatCoefs(100, 8), 5, math.Inf(1)), []int{5}, true, 1},
		{"one -Inf", with(flatCoefs(100, 8), 0, math.Inf(-1)), []int{0}, true, 1},
		{"empty", []float64{}, nil, false, 0},
		{"all zero is NoPA", flatCoefs(0, 8), nil, true, 0},
		{"zeros and a NaN", with(flatCoefs(0, 4), 1, math.NaN()), []int{1}, true, 1},
		{"all NaN", flatCoefs(math.NaN(), 4), []int{0, 1, 2, 3}, false, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, m := range constellations {
				a := MercuryWaterfill(m, tc.coef, budget)
				if len(a.PowerMW) != len(tc.coef) {
					t.Fatalf("%v: %d powers for %d coefficients", m, len(a.PowerMW), len(tc.coef))
				}
				var total float64
				for k, p := range a.PowerMW {
					if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
						t.Fatalf("%v: power[%d] = %v", m, k, p)
					}
					total += p
				}
				for _, k := range tc.dead {
					if a.PowerMW[k] != 0 {
						t.Errorf("%v: dead subcarrier %d got %v mW", m, k, a.PowerMW[k])
					}
				}
				if tc.spends && !relClose(total, budget, 1e-9) {
					t.Errorf("%v: spent %v mW of %v", m, total, budget)
				}
				if a.Dropped != tc.dropped {
					t.Errorf("%v: dropped %d, want %d", m, a.Dropped, tc.dropped)
				}
				if g := a.Rate.GoodputBps; math.IsNaN(g) || g < 0 {
					t.Errorf("%v: goodput %v", m, g)
				}
			}
		})
	}
	if a, want := MercuryWaterfill(ofdm.QPSK, flatCoefs(-1, 8), budget), NoPA(flatCoefs(-1, 8), budget); a.PowerMW[0] != want.PowerMW[0] || a.Dropped != 0 {
		t.Errorf("all-negative input is not NoPA: %+v", a)
	}
}

// TestMercuryWaterfillAllocs bounds the allocations of one solve: the
// water-level probes allocate nothing, leaving the returned power vector
// and the SINR scratch of the rate prediction.
func TestMercuryWaterfillAllocs(t *testing.T) {
	coef := make([]float64, ofdm.NumSubcarriers)
	for i := range coef {
		coef[i] = channel.DBToLinear(float64(5 + (i*13)%30))
	}
	MercuryWaterfill(ofdm.QAM16, coef, 31.6) // build the tables
	if n := testing.AllocsPerRun(5, func() { MercuryWaterfill(ofdm.QAM16, coef, 31.6) }); n > 2 {
		t.Errorf("MercuryWaterfill allocates %v times per call, want ≤ 2", n)
	}
}

// TestMercuryWaterfillFixedPointExit checks that stopping the water-level
// bisection once a probe leaves (lo, hi) unchanged gives the 64-probe
// Allocation bit for bit, over random coefficient vectors spanning many
// decades, with zero and dead (NaN, ±Inf) subcarriers, all-equal vectors,
// a coefficient scale whose lower λ bound underflows, and the real 4x2
// columns.
func TestMercuryWaterfillFixedPointExit(t *testing.T) {
	src := rng.New(0x64)
	var cases [][]float64
	for i := 0; i < 40; i++ {
		n := 1 + src.Intn(ofdm.NumSubcarriers)
		scale := math.Pow(10, -8+16*src.Float64())
		coef := make([]float64, n)
		for k := range coef {
			coef[k] = scale * math.Pow(10, 3*src.Float64()-1.5)
			switch src.Intn(12) {
			case 0:
				coef[k] = 0
			case 1:
				coef[k] = math.NaN()
			case 2:
				coef[k] = math.Inf(1 - 2*src.Intn(2))
			}
		}
		cases = append(cases, coef)
	}
	deadOne := flatCoefs(5, 8)
	deadOne[2] = math.NaN()
	cases = append(cases, flatCoefs(2, 52), flatCoefs(1e-300, 52), flatCoefs(3e7, 1), deadOne)
	cols, _ := real4x2Columns(t)
	cases = append(cases, cols...)
	for c, coef := range cases {
		for _, budget := range []float64{1e-3, 31.6, 1e4} {
			for _, m := range constellations {
				got, want := MercuryWaterfill(m, coef, budget), mercuryWaterfill64(m, coef, budget)
				if got.Rate != want.Rate || got.Dropped != want.Dropped || len(got.PowerMW) != len(want.PowerMW) {
					t.Fatalf("case %d %v budget %v: rate/dropped %+v/%d, 64 probes %+v/%d", c, m, budget, got.Rate, got.Dropped, want.Rate, want.Dropped)
				}
				for k := range got.PowerMW {
					if math.Float64bits(got.PowerMW[k]) != math.Float64bits(want.PowerMW[k]) {
						t.Fatalf("case %d %v budget %v sc %d: power %v, 64 probes %v", c, m, budget, k, got.PowerMW[k], want.PowerMW[k])
					}
				}
			}
		}
	}
}
