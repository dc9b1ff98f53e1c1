package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// Consistency between BENCHMARK.json and this program: the file is what
// tools that run the benchmark read, the tables in metrics.go and
// workloads.go are what the program emits.

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	path := filepath.Join("..", "BENCHMARK.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	want := []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
	if len(keys) != len(want) {
		t.Errorf("BENCHMARK.json has %d keys, want exactly %v", len(keys), want)
	}
	for _, k := range want {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s benchSpec
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return s
}

func TestSpecShape(t *testing.T) {
	s := readSpec(t)
	if len(s.Paths) < 1 || len(s.Paths) > 16 {
		t.Errorf("%d paths, want 1–16", len(s.Paths))
	}
	for _, p := range s.Paths {
		if !pathRE.MatchString(p) || p[0] == '/' {
			t.Errorf("bad path %q", p)
		}
	}
	if len(s.Command) == 0 || len(s.Command) > 32 {
		t.Errorf("command has %d strings, want 1–32", len(s.Command))
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1–60", s.RunSeconds)
	}
	if n := len(s.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2–8", n)
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1–16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1–128", n)
	}
	seen := map[string]bool{}
	checkName := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %s", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range s.Workloads {
		checkName("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1–200", w.Name, len(w.Why))
		}
	}
	maxBound := 0.0
	for _, m := range s.EndToEnd {
		checkName("end-to-end", m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	for _, m := range s.EndToEnd {
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower" || m.Bound != maxBound) {
			t.Errorf("setup_s must be s, lower, with the largest bound; got %+v", m)
		}
	}
	for _, m := range s.PerLayer {
		checkName("per-layer", m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}
	if !seen["setup_s"] {
		t.Error("no setup_s end-to-end metric")
	}
}

func TestSpecMatchesCode(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: JSON %+v, program %q %q", i, w, workloads[i].name, workloads[i].why)
		}
	}
	if len(s.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(s.EndToEnd), len(endToEnd))
	}
	for i, m := range s.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end-to-end %d: JSON %+v, program %+v", i, m, d)
		}
	}
	if len(s.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(s.PerLayer), len(perLayer))
	}
	for i, m := range s.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: JSON %+v, program %+v", i, m, d)
		}
	}
}

func TestMovesNameRealTargets(t *testing.T) {
	s := readSpec(t)
	e2e, wl := map[string]bool{}, map[string]bool{}
	for _, m := range s.EndToEnd {
		e2e[m.Name] = true
	}
	for _, w := range s.Workloads {
		wl[w.Name] = true
	}
	for _, d := range perLayer {
		for _, mv := range d.Moves {
			if !e2e[mv.Metric] || !wl[mv.Workload] {
				t.Errorf("%s moves %s @ %s: no such end-to-end metric or workload", d.Name, mv.Metric, mv.Workload)
			}
		}
	}
}

// checkEmitted requires a result line to carry exactly the metrics defs
// names, each with its declared unit.
func checkEmitted(t *testing.T, label string, o *outcome, defs []metricDef) {
	t.Helper()
	r, err := o.result(defs)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	var buf bytes.Buffer
	if err := writeResult(&buf, r); err != nil {
		t.Fatal(err)
	}
	got, err := lastResult(buf.Bytes())
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if len(got.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics emitted, want %d", label, len(got.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := got.Metrics[d.Name]
		if !ok || v.Unit != d.Unit {
			t.Errorf("%s: metric %s emitted as %+v (present %v), want unit %s", label, d.Name, v, ok, d.Unit)
		}
	}
	if !got.Correct || got.Attempted < 1 {
		t.Errorf("%s: result %+v, want correct with attempts (problems %v)", label, got, o.problems)
	}
}
