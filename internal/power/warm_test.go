package power

import (
	"testing"

	"copa/internal/channel"
	"copa/internal/linalg"
	"copa/internal/ofdm"
	"copa/internal/rng"
)

// warmCoefCases generates coefficient vectors spanning the regimes the
// warm scan's prune and tie rules must navigate: healthy spreads, zero
// entries (undecodable subcarriers), near-uniform ties, and vectors so
// weak every candidate has zero goodput (the equal-split fallback).
func warmCoefCases(n int) [][]float64 {
	var cases [][]float64
	for seed := int64(1); seed <= 6; seed++ {
		src := rng.New(0x3a70 + seed)
		coef := make([]float64, n)
		for i := range coef {
			coef[i] = src.Float64() * 50
		}
		cases = append(cases, coef)

		holes := append([]float64(nil), coef...)
		for i := 0; i < n; i += 3 {
			holes[i] = 0
		}
		cases = append(cases, holes)

		weak := make([]float64, n)
		for i := range weak {
			weak[i] = 1e-9 * src.Float64()
		}
		cases = append(cases, weak)
	}
	flat := make([]float64, n)
	for i := range flat {
		flat[i] = 2.0
	}
	cases = append(cases, flat, make([]float64, n))
	return cases
}

func cloneAlloc(a Allocation) Allocation {
	return Allocation{
		PowerMW: append([]float64(nil), a.PowerMW...),
		Rate:    a.Rate,
		Dropped: a.Dropped,
	}
}

func allocsEqual(a, b Allocation) bool {
	if a.Rate != b.Rate || a.Dropped != b.Dropped || len(a.PowerMW) != len(b.PowerMW) {
		return false
	}
	for i := range a.PowerMW {
		if a.PowerMW[i] != b.PowerMW[i] {
			return false
		}
	}
	return true
}

// TestEquiSNRWarmMatchesCold is the allocator-level half of the
// warm-start equivalence property: for every coefficient vector and
// EVERY hint value — in range, out of range, negative — the warm scan
// must return an allocation bit-identical to the cold scan's.
func TestEquiSNRWarmMatchesCold(t *testing.T) {
	var ws linalg.Workspace
	budget := channel.TotalTxBudgetMW() / 2
	for _, n := range []int{1, 4, ofdm.NumSubcarriers} {
		for ci, coef := range warmCoefCases(n) {
			ws.Reset()
			cold := cloneAlloc(EquiSNRWS(&ws, coef, budget))
			for hint := -2; hint <= n+1; hint++ {
				ws.Reset()
				warm := EquiSNRWarmWS(&ws, coef, budget, hint)
				if !allocsEqual(cold, warm) {
					t.Fatalf("n=%d case=%d hint=%d: warm diverged from cold\ncold: drop=%d rate=%+v\nwarm: drop=%d rate=%+v",
						n, ci, hint, cold.Dropped, cold.Rate, warm.Dropped, warm.Rate)
				}
			}
		}
	}
}

// TestConcurrentWarmDropsBitIdentical is the iteration-level half: on a
// static channel, a joint solve whose inner steps run the warm-started
// scan (seeded from a previous solve's drop counts) must produce power
// grids bit-identical to the cold solve — the ISSUE's "warm-started and
// cold-started Equi-SNR converge to identical power vectors" property.
func TestConcurrentWarmDropsBitIdentical(t *testing.T) {
	for _, null := range []bool{false, true} {
		for seed := int64(1); seed <= 4; seed++ {
			senders, cfg := pairCSI(t, 0x77a0+seed, null)
			cold := Concurrent(senders, cfg)

			// Hints harvested from the cold solve's final allocations,
			// plus deliberately wrong hints: both must reproduce the
			// cold result exactly.
			for _, hintVal := range []int{-1, 0, 3} {
				warmCfg := cfg
				warmCfg.WarmDrops = [][]int{
					{hintVal, hintVal},
					{hintVal, hintVal},
				}
				warm := Concurrent(senders, warmCfg)
				if warm.Iterations != cold.Iterations || warm.Converged != cold.Converged {
					t.Fatalf("null=%v seed=%d hint=%d: trajectory diverged (iters %d vs %d)",
						null, seed, hintVal, warm.Iterations, cold.Iterations)
				}
				for i := range cold.Tx {
					for k := range cold.Tx[i].PowerMW {
						for s := range cold.Tx[i].PowerMW[k] {
							cw, ww := cold.Tx[i].PowerMW[k][s], warm.Tx[i].PowerMW[k][s]
							if cw != ww {
								t.Fatalf("null=%v seed=%d hint=%d: sender %d sc %d stream %d: cold %g warm %g",
									null, seed, hintVal, i, k, s, cw, ww)
							}
						}
					}
				}
				if warm.Aggregate() != cold.Aggregate() {
					t.Fatalf("null=%v seed=%d hint=%d: aggregate %g vs %g",
						null, seed, hintVal, warm.Aggregate(), cold.Aggregate())
				}
			}
		}
	}
}
