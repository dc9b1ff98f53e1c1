package copa

import (
	"sync"
	"testing"

	"copa/internal/channel"
	"copa/internal/power"
	"copa/internal/rng"
	"copa/internal/strategy"
)

// BenchmarkMercuryBest4x2 times COPA+'s inner allocator (§4.2) on every
// coefficient column one 4x2 topology's COPA+ pass hands it: the same
// Alloc.Inner = power.MercuryBest, MaxIters = 3 evaluation that
// campaign.EvaluateTopology runs. One op is one topology's worth of
// MercuryBest calls. Its allocs/op is gated by copabench: the
// water-level search must stay allocation-free.
func BenchmarkMercuryBest4x2(b *testing.B) {
	var cols [][]float64
	var budgets []float64
	dep := channel.DeploymentAt(benchSeed, channel.Scenario4x2, 0)
	ev := strategy.NewEvaluator(dep, channel.DefaultImpairments(), rng.New(benchSeed))
	ev.Alloc.MaxIters = 3
	// EvaluateAll may run strategies on helper goroutines, so the
	// collector locks: an unguarded append loses columns at random.
	var mu sync.Mutex
	ev.Alloc.Inner = func(coef []float64, budgetMW float64) power.Allocation {
		mu.Lock()
		cols = append(cols, append([]float64(nil), coef...))
		budgets = append(budgets, budgetMW)
		mu.Unlock()
		return power.MercuryBest(coef, budgetMW)
	}
	if _, err := ev.EvaluateAll(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c, coef := range cols {
			power.MercuryBest(coef, budgets[c])
		}
	}
}
