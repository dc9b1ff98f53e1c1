package copa

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"
)

// These tests exercise the public facade end to end: topology → CSI →
// precoding → allocation → strategy choice → protocol exchange, the way a
// downstream user would drive the library.

func TestFacadeTopologyGeneration(t *testing.T) {
	dep := NewDeployment(1, Scenario4x2)
	if dep.Scenario.Name != "4x2" {
		t.Fatalf("scenario %q", dep.Scenario.Name)
	}
	deps := GenerateTestbed(2, Scenario1x1, 5)
	if len(deps) != 5 {
		t.Fatalf("%d deployments", len(deps))
	}
	for _, d := range deps {
		if d.H[0][0] == nil || d.H[1][0] == nil {
			t.Fatal("missing links")
		}
	}
}

func TestFacadeEvaluateAndSelect(t *testing.T) {
	dep := NewDeployment(3, Scenario4x2)
	ev := NewEvaluator(dep, DefaultImpairments(), 7)
	outs, err := ev.EvaluateAll()
	if err != nil {
		t.Fatal(err)
	}
	max := Select(ModeMax, outs)
	fair := Select(ModeFair, outs)
	if max.PredictedAggregate() < fair.PredictedAggregate() {
		t.Error("max mode predicted below fair mode")
	}
	if _, ok := outs[KindCSMA]; !ok {
		t.Error("CSMA missing")
	}
}

func TestFacadeProtocolExchange(t *testing.T) {
	dep := NewDeployment(4, Scenario4x2)
	pair := NewPair(dep, DefaultImpairments(), 30*time.Millisecond, ModeFair, 9)
	pair.MeasureCSI()
	s, err := pair.RunExchange(4000)
	if err != nil {
		t.Fatal(err)
	}
	tput := pair.MeasuredThroughputs(s)
	if tput[0]+tput[1] <= 0 {
		t.Error("no throughput from negotiated transmissions")
	}
}

func TestFacadePrecodingAndAllocators(t *testing.T) {
	dep := NewDeployment(5, Scenario4x2)
	imp := PerfectHardware()
	bf, err := Beamforming(dep.H[0][0], 2)
	if err != nil {
		t.Fatal(err)
	}
	if bf.Streams != 2 {
		t.Error("beamformer streams")
	}
	if _, err := Nulling(dep.H[0][0], dep.H[0][1], 2); err != nil {
		t.Fatalf("4x2 nulling should be feasible: %v", err)
	}
	_ = imp

	coef := make([]float64, 52)
	for i := range coef {
		coef[i] = math.Pow(10, float64(15+i%12)/10)
	}
	for _, alloc := range []Allocation{
		EquiSNR(coef, 31.6),
		Waterfill(coef, 31.6),
		MercuryBest(coef, 31.6),
	} {
		var sum float64
		for _, p := range alloc.PowerMW {
			sum += p
		}
		if sum > 31.6*1.05 {
			t.Errorf("allocator overspent: %g", sum)
		}
	}
}

func TestFacadeCSICodec(t *testing.T) {
	dep := NewDeployment(6, Scenario4x2)
	blob, err := EncodeCSI(dep.H[0][0])
	if err != nil {
		t.Fatal(err)
	}
	rec, err := DecodeCSI(blob)
	if err != nil {
		t.Fatal(err)
	}
	if rec.NRx() != 2 || rec.NTx() != 4 {
		t.Error("codec shape mismatch")
	}
}

func TestFacadeOverheadAndDCF(t *testing.T) {
	m := DefaultOverheadModel()
	rows := m.Table1(4*time.Millisecond, time.Second)
	if len(rows) != 2 || rows[0].COPAConc <= rows[1].COPAConc {
		t.Error("overhead table wrong")
	}
	d := DCF{Stations: 3, COPAPair: true}
	stats := d.Run(NewRand(1), 500)
	if stats.TXOPs != 500 {
		t.Error("DCF txop count")
	}
}

func TestFacadeServer(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.Workers = 2
	srv := NewServer(cfg)
	defer srv.Close()

	req := AllocateRequest{
		Scenario:    Scenario1x1,
		Seed:        5,
		Mode:        ModeMax,
		Impairments: DefaultImpairments(),
	}
	res, cached, err := srv.Allocate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if cached || res.Selected.Aggregate() <= 0 {
		t.Fatalf("first allocate: cached=%v aggregate=%g", cached, res.Selected.Aggregate())
	}
	if _, cached, err = srv.Allocate(context.Background(), req); err != nil || !cached {
		t.Fatalf("repeat allocate: cached=%v err=%v", cached, err)
	}
	m := Metrics()
	if m.Counters["copa.serve.requests"] == 0 || m.Counters["copa.serve.cache_hits"] == 0 {
		t.Error("serve metrics not visible through copa.Metrics()")
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, _, err := srv.Allocate(context.Background(), req); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("post-shutdown err = %v, want ErrServerClosed", err)
	}
}

func TestFacadeExperimentHarness(t *testing.T) {
	cfg := DefaultExperimentConfig(1)
	cfg.Topologies = 3
	cfg.SkipCOPAPlus = true
	res, err := RunScenario(context.Background(), Scenario4x2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := Headlines(res, ScenarioProfile, 0)
	if hs.NullLosesToCSMA < 0 || hs.NullLosesToCSMA > 1 {
		t.Error("headline fraction out of range")
	}
	if f := RunFigure2(1); len(f.PowerDBm[0]) == 0 {
		t.Error("figure 2 empty")
	}
	if rows := Table1(); len(rows) != 3 {
		t.Error("table 1 rows")
	}
}

func TestFacadeClusterAndSchedule(t *testing.T) {
	dep, err := NewMultiDeployment(8, Scenario4x2, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCluster(dep, DefaultImpairments(), 30*time.Millisecond, ModeFair, 9)
	stats, err := c.RunRounds(3)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 3 {
		t.Errorf("rounds %d", stats.Rounds)
	}

	pd := NewDeployment(10, Scenario4x2)
	pair := NewPair(pd, DefaultImpairments(), 30*time.Millisecond, ModeMax, 11)
	res, err := pair.RunSchedule(ScheduleConfig{
		Duration:        40 * time.Millisecond,
		RefreshInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TXOPs == 0 || res.Aggregate() <= 0 {
		t.Error("schedule produced nothing")
	}
}

func TestFacadeRandDeterminism(t *testing.T) {
	a, b := NewRand(5), NewRand(5)
	for i := 0; i < 10; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("NewRand not deterministic")
		}
	}
}

func TestFacadeScenarioConstants(t *testing.T) {
	if Scenario1x1.APAntennas != 1 || Scenario4x2.APAntennas != 4 || Scenario3x2.APAntennas != 3 {
		t.Error("scenario constants wrong")
	}
	if KindCSMA.String() != "CSMA" || ModeFair.String() != "fair" {
		t.Error("string methods not reachable through facade")
	}
}
