package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"copa/internal/api"
	"copa/internal/campaign"
	"copa/internal/channel"
	"copa/internal/drift"
	"copa/internal/obs"
	"copa/internal/serve"
)

// Tiny versions of every workload: the same code paths as a real run,
// on 1x1 worlds and sub-second windows.
var (
	tinyHot    = hotConfig{scenario: "1x1", worlds: 4, rate: 200, setups: 1}
	tinyCold   = coldConfig{scenarios: []string{"1x1"}, worldRate: 10, setups: 1}
	tinyFigure = figureConfig{scenario: channel.Scenario1x1, skipPlus: true, setups: 1}
	tinyDrift  = driftConfig{profiles: []drift.Profile{drift.Pedestrian}, setups: 1, checkRounds: 2}
)

func tinyParams(t *testing.T) params {
	return params{seed: 3, window: 500 * time.Millisecond, workdir: t.TempDir()}
}

func TestWorkloadsSmoke(t *testing.T) {
	obs.SetTraceSampling(0)
	defer obs.SetTraceSampling(1)
	runs := map[string]func(context.Context, params) (*outcome, error){
		"serve-hot":  func(ctx context.Context, p params) (*outcome, error) { return serveHot(ctx, p, tinyHot) },
		"serve-cold": func(ctx context.Context, p params) (*outcome, error) { return serveCold(ctx, p, tinyCold) },
		"figure":     func(ctx context.Context, p params) (*outcome, error) { return figure(ctx, p, tinyFigure) },
		"drift":      func(ctx context.Context, p params) (*outcome, error) { return driftRounds(ctx, p, tinyDrift) },
	}
	if len(runs) != len(workloads) {
		t.Fatalf("smoke covers %d workloads, the benchmark has %d", len(runs), len(workloads))
	}
	for _, w := range workloads {
		o, err := runs[w.name](context.Background(), tinyParams(t))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkEmitted(t, w.name, o, endToEnd)
		for _, d := range endToEnd {
			if o.values[d.Name] <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, d.Name, o.values[d.Name])
			}
		}
	}
}

func TestTracedSuiteSmoke(t *testing.T) {
	p := tinyParams(t)
	spans := filepath.Join(p.workdir, "spans.json")
	cfg := traceConfig{
		hot: tinyHot, hotPhase: 200 * time.Millisecond,
		cold: tinyCold, coldPhase: p.window, ledgerWorlds: 2,
		figure: tinyFigure, figureTopologies: 1,
		drift: tinyDrift, driftRounds: 3,
		pollEvery: 5 * time.Millisecond,
		spansPath: spans,
	}
	o, err := tracedSuite(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkEmitted(t, "traced", o, perLayer)
	if lost := o.values["obs.spans_lost_frac"]; lost >= 0.01 {
		t.Errorf("obs.spans_lost_frac = %v, want < 0.01", lost)
	}
	for _, name := range []string{"router.self_us", "api.handler_self_us", "serve.allocate_us", "channel.deploy_ms", "campaign.unit_s_p50"} {
		if o.values[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, o.values[name])
		}
	}
	data, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	var recs []spanRec
	if err := json.Unmarshal(data, &recs); err != nil {
		t.Fatalf("spans file: %v", err)
	}
	sources := map[string]int{}
	for _, r := range recs {
		sources[r.Source]++
		if r.End < r.Start || r.Trace == "" || r.ID == "" {
			t.Fatalf("malformed span %+v", r)
		}
	}
	if sources["bench"] == 0 || sources["program"] == 0 {
		t.Errorf("span sources %v: want both benchmark and program spans", sources)
	}
}

// TestCorruptedReplyFailsCheck: a served answer that differs from a
// direct Allocate in any field must fail the serving check.
func TestCorruptedReplyFailsCheck(t *testing.T) {
	st, err := newStack(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	keys := []api.AllocateRequest{{Scenario: "1x1", Seed: 5, Mode: "fair"}}
	sched := []arrival{{key: 0, binary: true}}
	rep := st.do(context.Background(), nil, keys[0], true)
	if !rep.ok() {
		t.Fatal(rep.err)
	}
	ref := serve.New(serve.Config{Workers: 1})
	defer ref.Close()
	if err := checkReplies(ref, keys, sched, map[int]reply{0: rep}, []int{0}); err != nil {
		t.Fatalf("intact reply fails the check: %v", err)
	}
	bad := rep
	bad.resp.Selected.AggregateBps *= 1.0001
	if err := checkReplies(ref, keys, sched, map[int]reply{0: bad}, []int{0}); err == nil {
		t.Error("corrupted reply passes the check")
	}
}

// TestTamperedJournalFailsCheck: a journaled unit whose bytes differ
// from campaign.EvalUnit's must fail the figure check.
func TestTamperedJournalFailsCheck(t *testing.T) {
	spec := campaign.Spec{
		Seed: 4, Scenario: channel.Scenario1x1, Topologies: 2, Shards: 2,
		Profiles: campaign.DefaultProfiles(), AgeBuckets: 1, SkipCOPAPlus: true,
	}
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if _, err := campaign.Run(context.Background(), spec, campaign.Options{Workers: 1, Checkpoint: path}); err != nil {
		t.Fatal(err)
	}
	if err := checkJournalUnit(spec, path, 1); err != nil {
		t.Fatalf("intact journal fails the check: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := bytes.Replace(data, []byte(`"mean":`), []byte(`"mean":1`), 1)
	if bytes.Equal(tampered, data) {
		t.Fatal("tampering changed nothing")
	}
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	lines, order, err := journalUnits(path)
	if err != nil || len(order) != 2 {
		t.Fatalf("tampered journal unreadable: %v (%d units)", err, len(order))
	}
	failures := 0
	for u := range lines {
		if checkJournalUnit(spec, path, u) != nil {
			failures++
		}
	}
	if failures != 1 {
		t.Errorf("%d units fail the check after tampering with one, want 1", failures)
	}
}

// TestAlteredDriftStatsFailCheck: Stats that differ from a serial re-run
// in any field must fail the drift check.
func TestAlteredDriftStatsFailCheck(t *testing.T) {
	const seed, ticks = 6, 4
	prof := drift.Pedestrian
	ctls, err := newControllers(seed, []drift.Profile{prof})
	if err != nil {
		t.Fatal(err)
	}
	res := runRounds(ctls, ticks-1, time.Time{}, nil, nil)
	if res.failedRounds != 0 {
		t.Fatalf("%d rounds failed", res.failedRounds)
	}
	want := *ctls[0].Stats()
	if err := checkDriftStats(seed, 0, prof, ticks, want); err != nil {
		t.Fatalf("intact Stats fail the check: %v", err)
	}
	altered := want
	altered.ControlBytes++
	if err := checkDriftStats(seed, 0, prof, ticks, altered); err == nil {
		t.Error("altered Stats pass the check")
	}
}

func TestCommandLine(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no-such-workload"},
		{"--trace", "2"},
		{"--seconds", "0"},
		{"compare"},
		{"stray"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr %q)", args, code, errb.String())
		}
		if out.Len() != 0 {
			t.Errorf("%v printed %q to stdout, want no result", args, out.String())
		}
	}
}

// TestRoundsTickEveryController: a round spreads its ticks over the
// workers, and with more controllers than workers each still ticks
// exactly once per round.
func TestRoundsTickEveryController(t *testing.T) {
	ctls, err := newControllers(8, []drift.Profile{drift.Pedestrian, drift.Pedestrian, drift.Pedestrian})
	if err != nil {
		t.Fatal(err)
	}
	res := runRounds(ctls, 2, time.Time{}, nil, nil)
	if len(res.latency) != 2 || res.failedRounds != 0 {
		t.Fatalf("rounds %d failed %d", len(res.latency), res.failedRounds)
	}
	for i, c := range ctls {
		if c.Stats().Steps != 3 {
			t.Errorf("controller %d ran %d steps, want 3", i, c.Stats().Steps)
		}
	}
}
