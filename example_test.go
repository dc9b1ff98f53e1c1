package copa_test

import (
	"context"
	"fmt"
	"time"

	"copa"
)

// Draw a reproducible topology and inspect its links.
func ExampleNewDeployment() {
	dep := copa.NewDeployment(42, copa.Scenario4x2)
	fmt.Println("scenario:", dep.Scenario.Name)
	fmt.Println("AP antennas:", dep.H[0][0].NTx())
	fmt.Println("client antennas:", dep.H[0][0].NRx())
	// Output:
	// scenario: 4x2
	// AP antennas: 4
	// client antennas: 2
}

// Evaluate every strategy on a topology and apply COPA's decision rule.
func ExampleSelect() {
	dep := copa.NewDeployment(7, copa.Scenario4x2)
	ev := copa.NewEvaluator(dep, copa.DefaultImpairments(), 1)
	outs, err := ev.EvaluateAll()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	max := copa.Select(copa.ModeMax, outs)
	fair := copa.Select(copa.ModeFair, outs)
	fmt.Println("strategies evaluated:", len(outs))
	fmt.Println("max beats seq:", max.PredictedAggregate() >= outs[copa.KindCOPASeq].PredictedAggregate())
	fmt.Println("fair is admissible:", fair.Predicted[0] >= outs[copa.KindCOPASeq].Predicted[0]-1)
	// Output:
	// strategies evaluated: 5
	// max beats seq: true
	// fair is admissible: true
}

// Run the full over-the-air ITS exchange between two COPA APs.
func ExamplePair_RunExchange() {
	dep := copa.NewDeployment(42, copa.Scenario4x2)
	pair := copa.NewPair(dep, copa.DefaultImpairments(), 30*time.Millisecond, copa.ModeFair, 7)
	pair.MeasureCSI()
	session, err := pair.RunExchange(4000)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("frames exchanged: 3")
	fmt.Println("leader elected:", session.LeaderIdx == 0 || session.LeaderIdx == 1)
	fmt.Println("control bytes > 500:", session.ControlBytes > 500)
	// Output:
	// frames exchanged: 3
	// leader elected: true
	// control bytes > 500: true
}

// Allocate a power budget across subcarriers with Algorithm 1.
func ExampleEquiSNR() {
	// Four strong subcarriers and one hopeless one.
	coef := []float64{1000, 900, 1100, 950, 0.001}
	alloc := copa.EquiSNR(coef, 10)
	fmt.Println("dropped:", alloc.Dropped)
	fmt.Printf("power on the dead subcarrier: %.0f\n", alloc.PowerMW[4])
	// Output:
	// dropped: 1
	// power on the dead subcarrier: 0
}

// Inspect the built-in instrumentation after running an experiment: every
// pipeline layer records counters and latency histograms into a
// process-wide registry that Metrics() snapshots.
func ExampleMetrics() {
	cfg := copa.DefaultExperimentConfig(1)
	cfg.Topologies = 2
	cfg.SkipCOPAPlus = true
	if _, err := copa.RunScenario(context.Background(), copa.Scenario4x2, cfg); err != nil {
		fmt.Println("error:", err)
		return
	}

	m := copa.Metrics()
	fmt.Println("topologies evaluated:", m.Counters["copa.campaign.topologies"] >= 2)

	// Equi-SINR iteration counts (Fig. 6 loop) as a distribution.
	iters := m.Histograms["copa.power.alloc_iters"]
	fmt.Println("allocations recorded:", iters.Count > 0)
	fmt.Println("median iterations <= 12:", iters.Quantile(0.5) <= 12)

	// Per-strategy evaluation latency, measured in seconds.
	lat := m.Timers["copa.strategy.eval_seconds.conc_null"]
	fmt.Println("nulling eval latency observed:", lat.Count > 0 && lat.Mean() > 0)
	// Output:
	// topologies evaluated: true
	// allocations recorded: true
	// median iterations <= 12: true
	// nulling eval latency observed: true
}

// Compute the paper's Table 1 for custom coherence times.
func ExampleOverheadModel() {
	m := copa.DefaultOverheadModel()
	rows := m.Table1(4*time.Millisecond, time.Second)
	fmt.Println("rows:", len(rows))
	fmt.Println("overhead falls with coherence:", rows[0].COPAConc > rows[1].COPAConc)
	// Output:
	// rows: 2
	// overhead falls with coherence: true
}
