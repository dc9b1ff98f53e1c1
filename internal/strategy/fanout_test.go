package strategy

import (
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"copa/internal/channel"
	"copa/internal/power"
	"copa/internal/precoding"
	"copa/internal/rng"
)

// worldConfig is one evaluator configuration the fan-out must not change.
type worldConfig struct {
	sc      channel.Scenario
	seed    int64
	multi   bool
	mercury bool
}

func (c worldConfig) String() string {
	return fmt.Sprintf("%s/seed%d/multi=%t/mercury=%t", c.sc.Name, c.seed, c.multi, c.mercury)
}

// evaluator builds a fresh evaluator for c.
func (c worldConfig) evaluator() *Evaluator {
	src := rng.New(c.seed)
	dep := channel.NewDeployment(src.Split(1), c.sc)
	ev := NewEvaluator(dep, channel.DefaultImpairments(), src.Split(2))
	ev.MultiDecoder = c.multi
	if c.mercury {
		ev.Alloc.Inner = power.MercuryBest
		ev.Alloc.MaxIters = 3
	}
	return ev
}

// worldConfigs spans the scenarios (full-rank nulling, no nulling, SDA),
// both decoder models and both inner allocators.
func worldConfigs() []worldConfig {
	var out []worldConfig
	for _, sc := range []channel.Scenario{channel.Scenario1x1, channel.Scenario4x2, channel.Scenario3x2} {
		for seed := int64(1); seed <= 2; seed++ {
			for _, multi := range []bool{false, true} {
				for _, mercury := range []bool{false, true} {
					out = append(out, worldConfig{sc, seed, multi, mercury})
				}
			}
		}
	}
	return out
}

// serialEvaluateAll is the reference EvaluateAll: the public Evaluate*
// methods one after another, in the order and with the error semantics
// of the serial pipeline.
func serialEvaluateAll(ev *Evaluator) (map[Kind]Outcome, error) {
	out := make(map[Kind]Outcome)
	for _, step := range []struct {
		kind Kind
		eval func() (Outcome, error)
	}{
		{KindCSMA, ev.EvaluateCSMA},
		{KindCOPASeq, ev.EvaluateCOPASeq},
		{KindConcBF, ev.EvaluateConcBF},
	} {
		o, err := step.eval()
		if err != nil {
			return nil, err
		}
		out[step.kind] = o
	}
	for _, k := range []Kind{KindNull, KindConcNull} {
		if o, err := ev.EvaluateNulling(k); err == nil {
			out[k] = o
		}
	}
	return out, nil
}

// checkMatchesSerial evaluates c with EvaluateAll and with the serial
// reference and requires identical outcomes and transmissions.
func checkMatchesSerial(t *testing.T, c worldConfig, ev *Evaluator, got map[Kind]Outcome, err error) {
	t.Helper()
	ref := c.evaluator()
	want, werr := serialEvaluateAll(ref)
	if err != nil || werr != nil {
		t.Fatalf("%v: EvaluateAll err %v, serial err %v", c, err, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%v: EvaluateAll outcomes differ from the serial methods':\n got %+v\nwant %+v", c, got, want)
	}
	for k, o := range want {
		g0, g1, gerr := ev.TransmissionsFor(o)
		w0, w1, werr := ref.TransmissionsFor(o)
		if gerr != nil || werr != nil {
			t.Fatalf("%v %v: TransmissionsFor errs %v, %v", c, k, gerr, werr)
		}
		if !reflect.DeepEqual([2]*precoding.Transmission{g0, g1}, [2]*precoding.Transmission{w0, w1}) {
			t.Fatalf("%v %v: transmissions differ from the serial methods'", c, k)
		}
	}
}

// TestEvaluateAllMatchesSerialMethods pins the fan-out to the serial
// pipeline bit for bit — outcomes and the transmissions TransmissionsFor
// returns, including the follower-1 pair under SDA — on the inline path
// (one processor, no helpers) and with helpers.
func TestEvaluateAllMatchesSerialMethods(t *testing.T) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, c := range worldConfigs() {
				ev := c.evaluator()
				got, err := ev.EvaluateAll()
				checkMatchesSerial(t, c, ev, got, err)
			}
		})
	}
}

// mallocsPerEvaluateAll is the steady-state heap allocation count of one
// EvaluateAll on a reused arena (internal/serve's pattern) at the given
// GOMAXPROCS. The garbage collector is off while it measures: a cycle
// empties the runtime's per-P caches of goroutine wait records, and
// refilling them would bill GC timing to the count.
func mallocsPerEvaluateAll(procs int) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ws := &precoding.Workspace{}
	run := func(i int) {
		ws.Reset()
		ev := worldConfig{sc: channel.Scenario4x2, seed: int64(i % 3)}.evaluator()
		ev.UseWorkspace(ws)
		if _, err := ev.EvaluateAll(); err != nil {
			panic(err)
		}
	}
	for i := 0; i < 12; i++ {
		run(i) // warm the arenas, the helpers and the runtime's caches
	}
	const n = 12
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		run(i)
	}
	runtime.ReadMemStats(&m1)
	return (m1.Mallocs - m0.Mallocs) / n
}

// TestEvaluateAllAllocsIndependentOfProcs: handing tasks to helpers
// allocates nothing, so an evaluation costs the same allocations with
// helpers as on the inline path. (testing.AllocsPerRun cannot measure
// this: it pins GOMAXPROCS to 1.)
func TestEvaluateAllAllocsIndependentOfProcs(t *testing.T) {
	inline := mallocsPerEvaluateAll(1)
	before := mHelperTasks.Value()
	lent := mallocsPerEvaluateAll(2)
	if mHelperTasks.Value() == before {
		t.Fatal("no task ran on a helper at GOMAXPROCS 2; the helper path went unmeasured")
	}
	if inline != lent {
		t.Fatalf("EvaluateAll allocates %d per op at GOMAXPROCS 1 but %d at GOMAXPROCS 2", inline, lent)
	}
}
