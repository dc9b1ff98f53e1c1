// Dense-apartment sweep: the paper's motivating scenario. We draw a
// population of interfering 4x2 topologies (think: neighbouring flats,
// each with its own AP), evaluate every medium-access strategy on each,
// and print the throughput distribution — a textual rendering of the
// paper's Figure 11 CDFs, plus the §1 headline statistics.
package main

import (
	"context"
	"fmt"
	"os"
	"strings"

	"copa"
)

func main() {
	cfg := copa.DefaultExperimentConfig(1)
	cfg.Topologies = 30
	cfg.SkipCOPAPlus = true // keep the example snappy; copasim runs COPA+

	res, err := copa.RunScenario(context.Background(), copa.Scenario4x2, cfg)
	if err != nil {
		copa.Logger().Error("scenario failed", "scenario", "4x2", "seed", cfg.Seed, "err", err)
		os.Exit(1)
	}

	fmt.Printf("dense Wi-Fi, %d topologies, 4-antenna APs, 2-antenna clients\n\n", cfg.Topologies)
	fmt.Println("aggregate throughput distribution (Mb/s):")
	fmt.Println("  scheme      p10    p25    p50    p75    p90   mean")
	for _, scheme := range []string{
		copa.SchemeCSMA, copa.SchemeCOPASeq, copa.SchemeNull,
		copa.SchemeCOPAFair, copa.SchemeCOPA,
	} {
		col := res.SchemeColumn(copa.ScenarioProfile, 0, scheme)
		if col == nil {
			continue
		}
		fmt.Printf("  %-10s", scheme)
		for _, q := range []float64{0.10, 0.25, 0.50, 0.75, 0.90} {
			fmt.Printf(" %6.1f", col.Sketch.Quantile(q)/1e6)
		}
		fmt.Printf(" %6.1f\n", col.Mean/1e6)
	}

	// A poor man's CDF sparkline for the two headline schemes: the i-th
	// of n columns is the sketch's quantile at rank i, i.e. topology i
	// in sorted order.
	fmt.Println("\nCDF sketch (each column = one topology, sorted):")
	for _, scheme := range []string{copa.SchemeCSMA, copa.SchemeNull, copa.SchemeCOPA} {
		col := res.SchemeColumn(copa.ScenarioProfile, 0, scheme)
		sorted := make([]float64, col.N)
		for i := range sorted {
			sorted[i] = col.Sketch.Quantile(float64(i) / float64(len(sorted)-1))
		}
		fmt.Printf("  %-10s %s\n", scheme, sparkline(sorted, 200e6))
	}

	hs := copa.Headlines(res, copa.ScenarioProfile, 0)
	fmt.Println("\nheadline statistics (paper's §1 claims in brackets):")
	fmt.Printf("  vanilla nulling loses to CSMA on %.0f%% of topologies [83%%]\n", hs.NullLosesToCSMA*100)
	fmt.Printf("  on those, COPA improves nulling by %.0f%% on average   [64%%]\n", hs.COPAOverNullWhereNullLoses*100)
	fmt.Printf("  and beats CSMA on %.0f%% of them                        [76%%]\n", hs.COPABeatsCSMAWhereNullLoses*100)
	fmt.Printf("  price of incentive compatibility: %.1f%%                [small]\n", hs.PriceOfFairness*100)
}

// sparkline renders ascending values as height buckets up to max.
func sparkline(sorted []float64, max float64) string {
	ticks := []rune("▁▂▃▄▅▆▇█")
	var b strings.Builder
	for _, v := range sorted {
		idx := int(v / max * float64(len(ticks)))
		if idx >= len(ticks) {
			idx = len(ticks) - 1
		}
		if idx < 0 {
			idx = 0
		}
		b.WriteRune(ticks[idx])
	}
	return b.String()
}
