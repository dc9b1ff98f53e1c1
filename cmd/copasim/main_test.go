package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"copa/internal/channel"
	"copa/internal/obs"
	"copa/internal/testbed"
)

// TestDebugSurface is the PR's acceptance check: after one scenario run,
// the -debug-addr surface must expose at least 10 distinct copa.* metrics
// via expvar and answer pprof requests.
func TestDebugSurface(t *testing.T) {
	bound, shutdown, err := obs.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeDebug: %v", err)
	}
	defer shutdown()

	cfg := testbed.DefaultConfig(1)
	cfg.Topologies = 3
	cfg.SkipCOPAPlus = true
	if _, err := testbed.RunScenario(context.Background(), channel.Scenario4x2, cfg); err != nil {
		t.Fatalf("RunScenario: %v", err)
	}

	get := func(path string) []byte {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", bound, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return body
	}

	var vars map[string]any
	if err := json.Unmarshal(get("/debug/vars"), &vars); err != nil {
		t.Fatalf("unmarshal /debug/vars: %v", err)
	}
	distinct := 0
	for name := range vars {
		if strings.HasPrefix(name, "copa.") {
			distinct++
		}
	}
	if distinct < 10 {
		names := make([]string, 0, len(vars))
		for n := range vars {
			names = append(names, n)
		}
		t.Fatalf("want >=10 distinct copa.* expvar metrics, got %d: %v", distinct, names)
	}

	if body := get("/debug/metrics"); !strings.Contains(string(body), "copa.") {
		t.Fatalf("/debug/metrics carries no copa.* entries: %s", body)
	}
	get("/debug/spans")
	get("/debug/pprof/cmdline")
	if body := get("/debug/pprof/goroutine?debug=1"); len(body) == 0 {
		t.Fatal("empty goroutine profile")
	}
}

// TestRunExitCodes exercises the CLI wrapper end to end on a cheap figure.
func TestRunExitCodes(t *testing.T) {
	if code := run([]string{"-fig", "table1"}); code != 0 {
		t.Fatalf("run(-fig table1) = %d, want 0", code)
	}
	if code := run([]string{"-fig", "table1", "-out", t.TempDir()}); code != 0 {
		t.Fatalf("run with -out = %d, want 0", code)
	}
	// An unwritable -out directory (here, a path below a regular file)
	// must fail the run, for the CSVs and for report.html alike.
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, fig := range []string{"table1", "its"} {
		if code := run([]string{"-fig", fig, "-out", filepath.Join(file, "out")}); code != 1 {
			t.Errorf("run(-fig %s) into an unwritable -out = %d, want 1", fig, code)
		}
	}
}

// runStdout runs the CLI and returns its exit code and stdout.
func runStdout(t *testing.T, args ...string) (int, string) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	code := run(args)
	os.Stdout = saved
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(out)
}

// TestProtocolFigures runs the ITS frame dump and the two MAC fairness
// simulations: each exits 0 and prints the same bytes on a second run.
func TestProtocolFigures(t *testing.T) {
	for _, fig := range []string{"its", "dcf", "cluster"} {
		code, first := runStdout(t, "-fig", fig)
		if code != 0 {
			t.Fatalf("run(-fig %s) = %d, want 0", fig, code)
		}
		if _, second := runStdout(t, "-fig", fig); second != first {
			t.Errorf("-fig %s output differs between runs:\n%s\n---\n%s", fig, first, second)
		}
		if fig == "its" {
			if n := strings.Count(first, "round-trip: all three frames decode cleanly"); n != 3 {
				t.Errorf("-fig its printed the round-trip self-check %d times, want once per scenario (3):\n%s", n, first)
			}
		}
	}
}

// TestReportDeterministic checks that -out writes report.html from the
// figures just printed, byte-identical across runs.
func TestReportDeterministic(t *testing.T) {
	var reports [2][]byte
	for i := range reports {
		dir := t.TempDir()
		if code, _ := runStdout(t, "-fig", "table1", "-out", dir); code != 0 {
			t.Fatalf("run(-fig table1 -out) = %d, want 0", code)
		}
		data, err := os.ReadFile(filepath.Join(dir, "report.html"))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), "<h2>Table 1 — MAC overhead</h2><table>") {
			t.Fatalf("report.html has no Table 1 section:\n%s", data)
		}
		reports[i] = data
	}
	if string(reports[0]) != string(reports[1]) {
		t.Error("report.html differs between two identical runs")
	}
}

// TestTraceOutFigureSpan checks that -trace-out records one cli.sim
// trace with a timed cli.sim.figure child for the figure that ran.
func TestTraceOutFigureSpan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	if code := run([]string{"-fig", "table1", "-trace-out", path}); code != 0 {
		t.Fatalf("run(-fig table1 -trace-out) = %d, want 0", code)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []obs.SpanRecord
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatalf("trace dump is not a JSON span array: %v", err)
	}
	// The dump is oldest first and the root ends last, so this run's
	// root is the last cli.sim record.
	var root obs.SpanRecord
	for _, s := range spans {
		if s.Name == "cli.sim" {
			root = s
		}
	}
	if root.Trace == "" || root.Parent != "" {
		t.Fatalf("no cli.sim root in the dump (%d spans)", len(spans))
	}
	var figs []obs.SpanRecord
	for _, s := range spans {
		if s.Trace == root.Trace && s.Name == "cli.sim.figure" {
			figs = append(figs, s)
		}
	}
	if len(figs) != 1 {
		t.Fatalf("got %d cli.sim.figure spans in the trace, want 1", len(figs))
	}
	f := figs[0]
	if f.Parent != root.ID {
		t.Errorf("cli.sim.figure parented to %q, want cli.sim %q", f.Parent, root.ID)
	}
	if len(f.Attrs) != 1 || f.Attrs[0] != (obs.Attr{Key: "figure", Value: "table1"}) {
		t.Errorf("cli.sim.figure attrs = %v, want figure=table1", f.Attrs)
	}
	if f.Duration <= 0 || f.Err != "" {
		t.Errorf("cli.sim.figure duration %v err %q, want a timed successful span", f.Duration, f.Err)
	}
}
