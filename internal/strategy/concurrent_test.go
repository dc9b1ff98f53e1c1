package strategy

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"copa/internal/channel"
)

// TestEvaluatorsConcurrently checks the workspace design's isolation
// guarantee: evaluators do not share scratch, so several may run in
// parallel (one per goroutine) and must produce exactly the results a
// serial run does. Four evaluations on fewer processors contend for the
// idle-processor budget, so some borrow helpers and some run inline.
// Run under -race this also proves the DFT plan cache's locking and the
// helper hand-off are sound.
func TestEvaluatorsConcurrently(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	configs := []worldConfig{
		{sc: channel.Scenario4x2, seed: 100},
		{sc: channel.Scenario4x2, seed: 101},
		{sc: channel.Scenario3x2, seed: 102},
		{sc: channel.Scenario1x1, seed: 103, mercury: true},
	}

	// Serial reference.
	want := make([]map[Kind]Outcome, len(configs))
	for i, c := range configs {
		outs, err := serialEvaluateAll(c.evaluator())
		if err != nil {
			t.Fatal(err)
		}
		want[i] = outs
	}

	// Same evaluations, all at once on separate evaluators.
	got := make([]map[Kind]Outcome, len(configs))
	errs := make([]error, len(configs))
	var start, wg sync.WaitGroup
	start.Add(1)
	for i, c := range configs {
		wg.Add(1)
		go func(i int, ev *Evaluator) {
			defer wg.Done()
			start.Wait()
			got[i], errs[i] = ev.EvaluateAll()
		}(i, c.evaluator())
	}
	start.Done()
	wg.Wait()

	for i, c := range configs {
		if errs[i] != nil {
			t.Fatalf("%v: %v", c, errs[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%v: concurrent run drifted:\n got %+v\nwant %+v", c, got[i], want[i])
		}
	}
}
