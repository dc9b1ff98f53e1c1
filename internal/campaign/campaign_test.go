package campaign

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"copa/internal/channel"
	"copa/internal/obs"
)

// testSpec is a small but non-trivial campaign: two grid cells, three
// shards, uneven shard sizes (7 topologies over 3 shards).
func testSpec() Spec {
	return Spec{
		Seed:       42,
		Scenario:   channel.Scenario1x1,
		Topologies: 7,
		Shards:     3,
		Profiles: []Profile{
			{Name: "default", Impairments: channel.DefaultImpairments()},
			{Name: "perfect", Impairments: channel.PerfectHardware()},
		},
		AgeBuckets:   1,
		SkipCOPAPlus: true,
	}
}

func marshal(t *testing.T, res *Result) []byte {
	t.Helper()
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestSpecValidate(t *testing.T) {
	base := testSpec()
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string // substring of the error, "" for valid
	}{
		{"valid", func(s *Spec) {}, ""},
		{"zero topologies", func(s *Spec) { s.Topologies = 0 }, "topologies"},
		{"negative topologies", func(s *Spec) { s.Topologies = -3 }, "topologies"},
		{"zero shards", func(s *Spec) { s.Shards = 0 }, "shards"},
		{"shards exceed topologies", func(s *Spec) { s.Shards = 8 }, "exceed"},
		{"no profiles", func(s *Spec) { s.Profiles = nil }, "profile"},
		{"empty profile name", func(s *Spec) { s.Profiles[0].Name = "" }, "profile name"},
		{"slash in profile name", func(s *Spec) { s.Profiles[0].Name = "a/b" }, "slash"},
		{"duplicate profile name", func(s *Spec) { s.Profiles[1].Name = "default" }, "duplicate"},
		{"zero age buckets", func(s *Spec) { s.AgeBuckets = 0 }, "age buckets"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base
			s.Profiles = append([]Profile(nil), base.Profiles...)
			tc.mutate(&s)
			err := s.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestShardRangePartition(t *testing.T) {
	s := testSpec()
	next := 0
	for sh := 0; sh < s.Shards; sh++ {
		lo, hi := s.shardRange(sh)
		if lo != next {
			t.Fatalf("shard %d starts at %d, want %d", sh, lo, next)
		}
		if hi <= lo {
			t.Fatalf("shard %d empty: [%d,%d)", sh, lo, hi)
		}
		next = hi
	}
	if next != s.Topologies {
		t.Fatalf("shards cover [0,%d), want [0,%d)", next, s.Topologies)
	}

	seen := make(map[[3]int]bool)
	for u := 0; u < s.Units(); u++ {
		p, a, sh := s.UnitCoord(u)
		if p < 0 || p >= len(s.Profiles) || a < 0 || a >= s.AgeBuckets || sh < 0 || sh >= s.Shards {
			t.Fatalf("unit %d decodes out of range: (%d,%d,%d)", u, p, a, sh)
		}
		key := [3]int{p, a, sh}
		if seen[key] {
			t.Fatalf("unit %d repeats coordinate %v", u, key)
		}
		seen[key] = true
	}
}

func TestRunDeterministicAcrossWorkers(t *testing.T) {
	spec := testSpec()
	var outs [][]byte
	for _, workers := range []int{1, 8} {
		res, err := Run(context.Background(), spec, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Units != spec.Units() {
			t.Fatalf("workers=%d: %d units, want %d", workers, res.Units, spec.Units())
		}
		outs = append(outs, marshal(t, res))
	}
	if string(outs[0]) != string(outs[1]) {
		t.Fatal("results differ between -workers 1 and -workers 8")
	}

	// Sanity on the content: every scheme column holds one sample per
	// topology, and the Fig. 9 columns exist exactly once (cell 0 only).
	res := &Result{}
	if err := json.Unmarshal(outs[0], res); err != nil {
		t.Fatal(err)
	}
	for _, name := range res.ColumnNames() {
		col := res.Column(name)
		if strings.HasPrefix(name, "fig9/") {
			if col.Moments.N == 0 {
				t.Errorf("column %s is empty", name)
			}
			continue
		}
		if col.Moments.N != uint64(spec.Topologies) {
			t.Errorf("column %s has %d samples, want %d", name, col.Moments.N, spec.Topologies)
		}
		if n := col.Sketch.Count(); n != col.Moments.N {
			t.Errorf("column %s: sketch count %d != moments count %d", name, n, col.Moments.N)
		}
	}
	if res.Column(ColFig9Signal) == nil || res.Column(ColFig9Interference) == nil {
		t.Error("Fig. 9 columns missing")
	}
}

func TestRunKillAndResumeGolden(t *testing.T) {
	spec := testSpec()
	golden, err := Run(context.Background(), spec, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := marshal(t, golden)

	ckpt := filepath.Join(t.TempDir(), "campaign.jsonl")

	// Phase 1: cancel after the second completed unit — the engine must
	// return the context error with those units already journaled.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = Run(ctx, spec, Options{
		Workers:    2,
		Checkpoint: ckpt,
		OnProgress: func(done, total int) {
			if done == 2 {
				cancel()
			}
		},
	})
	if err != context.Canceled {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(string(data), "\n")
	if lines < 3 { // header + the two units that triggered the cancel
		t.Fatalf("checkpoint has %d lines after cancel, want ≥ 3", lines)
	}
	if lines-1 >= spec.Units() {
		t.Fatalf("checkpoint already complete (%d units); cancel came too late to test resume", lines-1)
	}

	// Phase 2: resume. Only the missing units are recomputed; the final
	// aggregates must be byte-identical to the uninterrupted run.
	var resumedFrom int
	res, err := Run(context.Background(), spec, Options{
		Workers:    2,
		Checkpoint: ckpt,
		Resume:     true,
		OnProgress: func(done, total int) {
			if resumedFrom == 0 {
				resumedFrom = done
			}
		},
	})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if got := marshal(t, res); string(got) != string(want) {
		t.Fatal("resumed result differs from uninterrupted run")
	}
	if resumedFrom <= 2 {
		t.Errorf("first progress callback at %d units; journaled units were recomputed", resumedFrom)
	}

	// Phase 3: resuming a complete checkpoint recomputes nothing and
	// still reproduces the bytes.
	res, err = Run(context.Background(), spec, Options{Checkpoint: ckpt, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := marshal(t, res); string(got) != string(want) {
		t.Fatal("resume of complete checkpoint differs")
	}
}

// TestMergerStreamsContiguousPrefix feeds units out of order: each Add
// merges exactly the units that now extend the prefix, only units ahead
// of a gap stay pending, and the result matches an in-order feed.
func TestMergerStreamsContiguousPrefix(t *testing.T) {
	spec := testSpec()
	unit := func(u int) *UnitResult {
		ur := &UnitResult{Unit: u, Columns: make(map[string]*Column)}
		ur.col("x").Add(float64(u) * 1.1)
		ur.col("y").Add(float64(u * u))
		return ur
	}
	inOrder := newMerger(spec)
	for u := 0; u < 4; u++ {
		inOrder.Add(unit(u))
	}
	m := newMerger(spec)
	for _, step := range []struct{ unit, merged, pending int }{
		{2, 0, 1}, {0, 1, 1}, {3, 0, 2}, {1, 3, 0},
	} {
		if got := m.Add(unit(step.unit)); got != step.merged {
			t.Errorf("Add(%d) merged %d units, want %d", step.unit, got, step.merged)
		}
		if got := m.Pending(); got != step.pending {
			t.Errorf("after Add(%d): %d pending, want %d", step.unit, got, step.pending)
		}
	}
	if m.Result().Units != 4 {
		t.Errorf("merged %d units, want 4", m.Result().Units)
	}
	if string(marshal(t, m.Result())) != string(marshal(t, inOrder.Result())) {
		t.Error("out-of-order feed differs from in-order feed")
	}
}

// TestRunCOPAPlusResumeFromGappedJournal runs EvaluateTopology's COPA+
// pass on a few 4x2 topologies and resumes from a journal holding every
// other unit, so the streaming merge must hold units ahead of each gap.
// The resumed result must match an uninterrupted run byte for byte at
// one and two workers.
func TestRunCOPAPlusResumeFromGappedJournal(t *testing.T) {
	spec := Spec{
		Seed:       42,
		Scenario:   channel.Scenario4x2,
		Topologies: 5,
		Shards:     5,
		Profiles:   []Profile{{Name: "default", Impairments: channel.DefaultImpairments()}},
		AgeBuckets: 1,
	}
	golden, err := Run(context.Background(), spec, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if golden.SchemeColumn("default", 0, SchemeCOPAP) == nil || golden.SchemeColumn("default", 0, SchemeCOPAPF) == nil {
		t.Fatal("COPA+ columns missing")
	}
	// 4x2 has a Null column, so every topology carries the null-loses
	// indicator, and each lands in exactly one conditional branch.
	if c := golden.SchemeColumn("default", 0, HeadlineNullLoses); c == nil || c.N != uint64(spec.Topologies) {
		t.Fatalf("null-loses column %+v, want %d samples", c, spec.Topologies)
	}
	var branched uint64
	for _, name := range []string{HeadlineCOPABeatsCSMA, HeadlineNullWinEdge} {
		if c := golden.SchemeColumn("default", 0, name); c != nil {
			branched += c.N
		}
	}
	if branched != uint64(spec.Topologies) {
		t.Fatalf("headline branches hold %d topologies, want %d", branched, spec.Topologies)
	}
	want := marshal(t, golden)

	for _, workers := range []int{1, 2} {
		ckpt := filepath.Join(t.TempDir(), "campaign.jsonl")
		jnl, _, err := openJournal(ckpt, spec, false)
		if err != nil {
			t.Fatal(err)
		}
		for u := 1; u < spec.Units(); u += 2 {
			res, err := EvalUnit(spec, u, nil, func() error { return nil })
			if err != nil {
				t.Fatal(err)
			}
			if err := jnl.Record(res); err != nil {
				t.Fatal(err)
			}
		}
		if err := jnl.Close(); err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), spec, Options{Workers: workers, Checkpoint: ckpt, Resume: true})
		if err != nil {
			t.Fatalf("workers=%d: resume: %v", workers, err)
		}
		if got := marshal(t, res); string(got) != string(want) {
			t.Fatalf("workers=%d: result resumed from a gapped journal differs from an uninterrupted run", workers)
		}
	}
}

func TestRunRefusesExistingCheckpointWithoutResume(t *testing.T) {
	spec := testSpec()
	ckpt := filepath.Join(t.TempDir(), "campaign.jsonl")
	if err := os.WriteFile(ckpt, []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Run(context.Background(), spec, Options{Checkpoint: ckpt})
	if err == nil || !strings.Contains(err.Error(), "exists") {
		t.Fatalf("error %v, want checkpoint-exists refusal", err)
	}
}

func TestRunRefusesForeignCheckpoint(t *testing.T) {
	spec := testSpec()
	ckpt := filepath.Join(t.TempDir(), "campaign.jsonl")
	if _, err := Run(context.Background(), spec, Options{Checkpoint: ckpt}); err != nil {
		t.Fatal(err)
	}
	other := spec
	other.Seed = 43
	_, err := Run(context.Background(), other, Options{Checkpoint: ckpt, Resume: true})
	if err == nil || !strings.Contains(err.Error(), "different campaign spec") {
		t.Fatalf("error %v, want fingerprint mismatch", err)
	}
}

// TestRunRefusesVersion1Journal: a journal written before the headline
// columns existed names the same spec fingerprint, so only the version
// keeps a resume from merging its units into columns they never fed.
func TestRunRefusesVersion1Journal(t *testing.T) {
	spec := testSpec()
	ckpt := filepath.Join(t.TempDir(), "campaign.jsonl")
	hdr, err := json.Marshal(journalHeader{V: 1, Fingerprint: spec.Fingerprint(), Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, append(hdr, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Run(context.Background(), spec, Options{Checkpoint: ckpt, Resume: true})
	if err == nil || !strings.Contains(err.Error(), "version 1, want 2") {
		t.Fatalf("error %v, want version refusal", err)
	}
}

func TestRunToleratesTornTail(t *testing.T) {
	spec := testSpec()
	want := func() []byte {
		res, err := Run(context.Background(), spec, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return marshal(t, res)
	}()

	for _, tail := range []string{
		`{"unit":1,"colu`,                     // killed mid-write: no newline
		"not json at all\n",                   // corrupt but newline-terminated
		`{"unit":999999,"columns":{}}` + "\n", // parseable but out of range
		// A null column or sketch must be cut, never reach the merge.
		`{"unit":1,"columns":{"x":null}}` + "\n",
		`{"unit":1,"columns":{"x":{"n":1,"mean":2,"m2":0}}}` + "\n",
		`{"unit":1,"columns":{"x":{"n":1,"mean":2,"m2":0,"sketch":null}}}` + "\n",
	} {
		ckpt := filepath.Join(t.TempDir(), "campaign.jsonl")
		ctx, cancel := context.WithCancel(context.Background())
		_, err := Run(ctx, spec, Options{
			Workers:    1,
			Checkpoint: ckpt,
			OnProgress: func(done, total int) {
				if done == 1 {
					cancel()
				}
			},
		})
		cancel()
		if err != context.Canceled {
			t.Fatalf("cancelled run returned %v", err)
		}
		f, err := os.OpenFile(ckpt, os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(tail); err != nil {
			t.Fatal(err)
		}
		f.Close()

		res, err := Run(context.Background(), spec, Options{Checkpoint: ckpt, Resume: true})
		if err != nil {
			t.Fatalf("tail %q: resume failed: %v", tail, err)
		}
		if got := marshal(t, res); string(got) != string(want) {
			t.Fatalf("tail %q: resumed result differs from clean run", tail)
		}
	}
}

func TestRunCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, testSpec(), Options{})
	if err != context.Canceled {
		t.Fatalf("error %v, want context.Canceled", err)
	}
}

func TestRunInvalidSpec(t *testing.T) {
	spec := testSpec()
	spec.Shards = 0
	if _, err := Run(context.Background(), spec, Options{}); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestRunMaintainsObsMetrics(t *testing.T) {
	spec := testSpec()
	before := obs.Default().Snapshot()
	if _, err := Run(context.Background(), spec, Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	after := obs.Default().Snapshot()
	for _, name := range []string{"copa.campaign.runs", "copa.campaign.units_done", "copa.campaign.topologies"} {
		if after.Counters[name] <= before.Counters[name] {
			t.Errorf("%s did not advance (%d -> %d)", name, before.Counters[name], after.Counters[name])
		}
	}
	if got, want := after.Counters["copa.campaign.units_done"]-before.Counters["copa.campaign.units_done"], uint64(spec.Units()); got != want {
		t.Errorf("units_done advanced by %d, want %d", got, want)
	}
	if _, ok := after.Gauges["copa.campaign.units_per_sec"]; !ok {
		t.Error("units_per_sec gauge missing")
	}
}
