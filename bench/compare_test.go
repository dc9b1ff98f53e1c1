package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCompareVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100.5, 99.5, 100, 101, 99, 100, 100.2}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name   string
		better string
		floor  float64
		head   []float64
		want   string
	}{
		{"unchanged", "lower", 0, base, "within bound"},
		{"slower beyond bound", "lower", 0, scale(base, 1.2), "regressed"},
		{"faster every pair", "lower", 0, scale(base, 0.8), "improved"},
		{"slower within bound", "lower", 0, scale(base, 1.05), "within bound"},
		{"higher-is-better drop", "higher", 0, scale(base, 0.8), "regressed"},
		{"higher-is-better gain", "higher", 0, scale(base, 1.2), "improved"},
		{"regression under the absolute floor", "lower", 100, scale(base, 1.2), "within bound"},
		{"spread wider than bound", "lower", 0, []float64{50, 150, 60, 140, 100, 70, 130, 90, 110, 100}, "unresolved"},
	} {
		r, err := compareMetric(c.better, 0.1, c.floor, base, c.head)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if r.verdict != c.want {
			t.Errorf("%s: verdict %q, want %q (row %+v)", c.name, r.verdict, c.want, r)
		}
	}
	if _, err := compareMetric("lower", 0.1, 0, nil, base); err == nil {
		t.Error("empty base: want an error")
	}
}

// TestCompareCommand runs the subcommand over two directories of -out
// files and checks every row is judged.
func TestCompareCommand(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	write := func(dir string, i int, f float64) {
		rf := runFile{Seed: int64(i), Seconds: 1, Workloads: map[string]workloadResult{}}
		for _, w := range spec.Workloads {
			res := result{Correct: true, Attempted: 100, Metrics: map[string]value{}}
			for _, m := range spec.EndToEnd {
				res.Metrics[m.Name] = value{Value: f * (1 + float64(i)*0.001), Unit: m.Unit}
			}
			rf.Workloads[w.Name] = workloadResult{result: res, Info: map[string]float64{"loadgen.lag_p99_ms": 1}}
		}
		data, err := json.Marshal(rf)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "run"+string(rune('0'+i))+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	base, head := t.TempDir(), t.TempDir()
	for i := 0; i < 5; i++ {
		write(base, i, 10)
		write(head, i, 10)
	}
	var out, errb bytes.Buffer
	specPath := filepath.Join("..", "BENCHMARK.json")
	if code := run([]string{"compare", "-base", base, "-head", head, "-spec", specPath}, &out, &errb); code != 0 {
		t.Fatalf("compare exit %d\n%s%s", code, out.String(), errb.String())
	}
	rows := strings.Count(out.String(), "within bound")
	if want := len(spec.Workloads) * (len(spec.EndToEnd) + 1); rows != want {
		t.Errorf("%d rows within bound, want %d:\n%s", rows, want, out.String())
	}
}
