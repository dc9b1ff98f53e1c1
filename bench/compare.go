package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Absolute floors below which a worsening is not a regression whatever
// its relative size: set-up times this short are dominated by noise.
var absFloor = map[string]float64{"setup_s": 0.25}

// failedFracBound is the absolute rise in failed ÷ attempted that counts
// as a regression.
const failedFracBound = 0.005

// lagLimitMS marks a serve-hot run invalid: a generator this late did
// not offer the load the workload names. It applies to serve-hot only:
// on serve-cold the generator waits for a processor held by an
// evaluation, as any request due then does, and that wait is already
// charged to the requests' latency.
const (
	lagLimitMS  = 5
	lagWorkload = "serve-hot"
)

// row is one (workload, metric) comparison.
type row struct {
	baseMed, baseQ1, baseQ3 float64
	headMed, headQ1, headQ3 float64
	winShare                float64
	verdict                 string
}

// compareMetric judges one metric. base and head hold one value per
// run; runs pair by position (alternate which side runs first). Spread
// is the distance between quartiles as a share of the median, the larger
// of the two sides'. A change of at most floor (absolute) is within
// bound; otherwise a spread wider than the bound leaves the metric
// unresolved unless every head run beats every base run, a median worse
// by more than the bound is a regression, and a gain needs nine tenths
// of the pairs and a median shift larger than the base's quartile
// distance.
func compareMetric(better string, bound, floor float64, base, head []float64) (row, error) {
	var r row
	var err error
	if r.baseQ1, r.baseMed, r.baseQ3, err = Quartiles(base); err != nil {
		return r, err
	}
	if r.headQ1, r.headMed, r.headQ3, err = Quartiles(head); err != nil {
		return r, err
	}
	sign := 1.0 // positive worse
	if better == "higher" {
		sign = -1
	}
	isBetter := func(h, b float64) bool { return sign*(h-b) < 0 }
	wins, pairs := 0, min(len(base), len(head))
	for i := 0; i < pairs; i++ {
		if isBetter(head[i], base[i]) {
			wins++
		}
	}
	r.winShare = float64(wins) / float64(max(pairs, 1))
	allBetter := true
	for _, h := range head {
		for _, b := range base {
			if !isBetter(h, b) {
				allBetter = false
			}
		}
	}
	spread := math.Max(relSpread(r.baseQ1, r.baseMed, r.baseQ3), relSpread(r.headQ1, r.headMed, r.headQ3))
	delta := r.headMed - r.baseMed
	worse := sign * delta / math.Abs(r.baseMed)
	switch {
	case floor > 0 && math.Abs(delta) <= floor:
		r.verdict = "within bound"
	case spread > bound && allBetter:
		r.verdict = "improved"
	case spread > bound:
		r.verdict = "unresolved"
	case worse > bound:
		r.verdict = "regressed"
	case r.winShare >= 0.9 && worse < 0 && math.Abs(delta) > r.baseQ3-r.baseQ1:
		r.verdict = "improved"
	default:
		r.verdict = "within bound"
	}
	return r, nil
}

func relSpread(q1, med, q3 float64) float64 {
	if med == 0 {
		if q3 == q1 {
			return 0
		}
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(med)
}

// loadRuns reads every -out file in dir, in name order.
func loadRuns(dir string) ([]runFile, []string, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, nil, err
	}
	sort.Strings(names)
	var runs []runFile
	for _, n := range names {
		data, err := os.ReadFile(n)
		if err != nil {
			return nil, nil, err
		}
		var rf runFile
		if err := json.Unmarshal(data, &rf); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", n, err)
		}
		runs = append(runs, rf)
	}
	if len(runs) == 0 {
		return nil, nil, fmt.Errorf("no run files (*.json) in %s", dir)
	}
	return runs, names, nil
}

// compareCmd prints, for each workload and end-to-end metric, both
// sides' medians and quartiles, the share of pairs the head won, and a
// verdict; then the failed-operation share. It exits 1 if any row
// regressed or any run is missing a result.
func compareCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baseDir := fs.String("base", "", "directory of the parent commit's -out files")
	headDir := fs.String("head", "", "directory of the change's -out files")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *baseDir == "" || *headDir == "" {
		fmt.Fprintln(stderr, "compare needs -base and -head")
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	base, baseNames, err := loadRuns(*baseDir)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	head, headNames, err := loadRuns(*headDir)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	for _, side := range []struct {
		runs  []runFile
		names []string
	}{{base, baseNames}, {head, headNames}} {
		for i, rf := range side.runs {
			if lag := rf.Workloads[lagWorkload].Info["loadgen.lag_p99_ms"]; lag > lagLimitMS {
				fmt.Fprintf(stdout, "INVALID %s %s: generator lag p99 %.2f ms > %d ms\n", side.names[i], lagWorkload, lag, lagLimitMS)
			}
		}
	}

	code := 0
	fmt.Fprintf(stdout, "%-10s %-14s %28s %28s %6s  %s\n", "workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "wins", "verdict")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			bv, err := collect(base, w.Name, m.Name)
			if err == nil {
				var hv []float64
				if hv, err = collect(head, w.Name, m.Name); err == nil {
					var r row
					if r, err = compareMetric(m.Better, m.Bound, absFloor[m.Name], bv, hv); err == nil {
						fmt.Fprintf(stdout, "%-10s %-14s %12.5g [%6.4g, %6.4g] %12.5g [%6.4g, %6.4g] %5.0f%%  %s\n",
							w.Name, m.Name, r.baseMed, r.baseQ1, r.baseQ3, r.headMed, r.headQ1, r.headQ3, r.winShare*100, r.verdict)
						if r.verdict == "regressed" {
							code = 1
						}
						continue
					}
				}
			}
			fmt.Fprintf(stdout, "%-10s %-14s %s\n", w.Name, m.Name, err)
			code = 1
		}
		bf, hf := failedFrac(base, w.Name), failedFrac(head, w.Name)
		v := "within bound"
		if hf > bf+failedFracBound {
			v, code = "regressed", 1
		}
		fmt.Fprintf(stdout, "%-10s %-14s %12.5g %29.5g  %s\n", w.Name, "failed_frac", bf, hf, v)
	}
	return code
}

// collect gathers one metric of one workload across runs.
func collect(runs []runFile, workload, metric string) ([]float64, error) {
	var out []float64
	for i, rf := range runs {
		res, ok := rf.Workloads[workload]
		if !ok {
			return nil, fmt.Errorf("run %d has no %s result", i, workload)
		}
		v, ok := res.Metrics[metric]
		if !ok {
			return nil, fmt.Errorf("run %d %s has no %s", i, workload, metric)
		}
		out = append(out, v.Value)
	}
	return out, nil
}

// failedFrac is failed ÷ attempted pooled over runs.
func failedFrac(runs []runFile, workload string) float64 {
	var f, a int
	for _, rf := range runs {
		res := rf.Workloads[workload]
		f += res.Failed
		a += res.Attempted
	}
	if a == 0 {
		return 0
	}
	return float64(f) / float64(a)
}
