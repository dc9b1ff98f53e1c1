// Command copabench is the repository's end-to-end benchmark: four
// workloads driven through the system's public entry points, each
// reporting the end-to-end metrics BENCHMARK.json names, and a traced
// suite that reports the per-layer metrics. README.md describes the
// workloads, the metrics and how each layer metric should move an
// end-to-end one.
//
// Usage (from the repository root, through bench/run.sh which builds
// this program first):
//
//	--workload NAME --seed N --seconds S --trace 0   one workload, this process
//	--seed N --trace 1 [-spans FILE]                 the traced suite
//	-seed N -out run.json                            every workload, one child each
//	compare -base DIR -head DIR                      compare two sets of -out files
//
// The last line of standard output is the result: one JSON object with
// correct, attempted, failed and metrics. The exit code is non-zero when
// a correctness check fails or the benchmark cannot run.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"copa/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareCmd(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("copabench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run this workload in this process (default: every workload, each in its own child process)")
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "length of the measured window, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced suite and reports the per-layer metrics")
	spans := fs.String("spans", filepath.Join(".bench_build", "spans.json"), "where the traced suite writes its spans")
	out := fs.String("out", "", "without -workload: also write every workload's result to this JSON file")
	info := fs.String("info", "", "write the run's side readings (sample counts, generator lag) to this JSON file")
	workdir := fs.String("workdir", ".bench_build", "directory for scratch files such as the figure's journal")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "unexpected arguments: %v\n", fs.Args())
		return 2
	}
	if !(*seconds > 0 && *seconds <= 600) {
		fmt.Fprintf(stderr, "-seconds must be in (0, 600], got %g\n", *seconds)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "-trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	w, known := workloadByName(*name)
	if *name != "" && !known {
		fmt.Fprintf(stderr, "unknown workload %q\n", *name)
		return 2
	}
	p := params{seed: *seed, window: time.Duration(*seconds * float64(time.Second)), workdir: *workdir}
	ctx := context.Background()

	switch {
	case *trace == 1:
		// The suite covers every workload's layers, whichever is named.
		o, err := tracedSuite(ctx, p, defaultTraceConfig(p.window, *spans))
		return report(o, err, "traced", perLayer, *info, stdout, stderr)
	case *name != "":
		// End-to-end numbers are measured with tracing off.
		obs.SetTraceSampling(0)
		o, err := w.run(ctx, p)
		return report(o, err, w.name, endToEnd, *info, stdout, stderr)
	default:
		return runAll(p, *out, stdout, stderr)
	}
}

// report prints a measured outcome: one line per metric, then the
// result line. It returns the exit code.
func report(o *outcome, err error, label string, defs []metricDef, infoPath string, stdout, stderr io.Writer) int {
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", label, err)
		return 1
	}
	o.printLines(stdout, label, defs)
	r, err := o.result(defs)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", label, err)
		return 1
	}
	if infoPath != "" {
		data, err := json.Marshal(o.info)
		if err == nil {
			err = os.WriteFile(infoPath, data, 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "%s: write info: %v\n", label, err)
			return 1
		}
	}
	if err := writeResult(stdout, r); err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", label, err)
		return 1
	}
	if !r.Correct {
		return 1
	}
	return 0
}

// workloadResult is one workload's entry in a -out file.
type workloadResult struct {
	result
	Info map[string]float64 `json:"info,omitempty"`
}

// runFile is the -out file: every workload's result from one seed.
type runFile struct {
	Seed      int64                     `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	Workloads map[string]workloadResult `json:"workloads"`
}

// runAll runs every workload in its own child process — this binary
// again, with --workload — so each starts with a clean heap and its own
// peak-RSS reading, and collects their results.
func runAll(p params, outPath string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "locate benchmark binary: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(p.workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "%v\n", err)
		return 1
	}
	rf := runFile{Seed: p.seed, Seconds: p.window.Seconds(), Workloads: map[string]workloadResult{}}
	code := 0
	for _, w := range workloads {
		infoPath := filepath.Join(p.workdir, "info-"+w.name+".json")
		var buf bytes.Buffer
		cmd := exec.Command(self,
			"--workload", w.name,
			"--seed", strconv.FormatInt(p.seed, 10),
			"--seconds", strconv.FormatFloat(p.window.Seconds(), 'g', -1, 64),
			"--trace", "0",
			"-info", infoPath,
			"-workdir", p.workdir)
		cmd.Stdout = io.MultiWriter(stdout, &buf)
		cmd.Stderr = stderr
		runErr := cmd.Run()
		res, perr := lastResult(buf.Bytes())
		if perr != nil {
			fmt.Fprintf(stderr, "%s: %v (child: %v)\n", w.name, perr, runErr)
			code = 1
			continue
		}
		if runErr != nil || !res.Correct {
			code = 1
		}
		wr := workloadResult{result: res}
		if data, err := os.ReadFile(infoPath); err == nil {
			_ = json.Unmarshal(data, &wr.Info) // side readings only
			os.Remove(infoPath)
		}
		rf.Workloads[w.name] = wr
	}
	if outPath != "" {
		data, err := json.MarshalIndent(rf, "", "  ")
		if err == nil {
			err = os.WriteFile(outPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "write %s: %v\n", outPath, err)
			return 1
		}
	}
	return code
}

// lastResult parses the result line a run printed last.
func lastResult(stdout []byte) (result, error) {
	lines := strings.Split(strings.TrimRight(string(stdout), "\n"), "\n")
	var r result
	if len(lines) == 0 || lines[len(lines)-1] == "" {
		return r, fmt.Errorf("no result line")
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return r, fmt.Errorf("result line: %w", err)
	}
	return r, nil
}
