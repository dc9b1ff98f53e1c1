package cliflags

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"copa/internal/channel"
	"copa/internal/obs"
	"copa/internal/strategy"
)

func TestParseScenario(t *testing.T) {
	for name, want := range map[string]channel.Scenario{
		"1x1": channel.Scenario1x1,
		"4x2": channel.Scenario4x2,
		"3x2": channel.Scenario3x2,
	} {
		got, err := ParseScenario(name)
		if err != nil || got != want {
			t.Errorf("ParseScenario(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseScenario("5x5"); err == nil {
		t.Error("unknown scenario accepted")
	}
}

func TestParseMode(t *testing.T) {
	if m, err := ParseMode("max"); err != nil || m != strategy.ModeMax {
		t.Errorf("max: %v, %v", m, err)
	}
	if m, err := ParseMode("fair"); err != nil || m != strategy.ModeFair {
		t.Errorf("fair: %v, %v", m, err)
	}
	if _, err := ParseMode("greedy"); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestParseImpairments(t *testing.T) {
	if imp, err := ParseImpairments(""); err != nil || imp != channel.DefaultImpairments() {
		t.Errorf("empty: %v, %v", imp, err)
	}
	if imp, err := ParseImpairments("perfect"); err != nil || imp != channel.PerfectHardware() {
		t.Errorf("perfect: %v, %v", imp, err)
	}
	if _, err := ParseImpairments("lab"); err == nil {
		t.Error("unknown profile accepted")
	}
}

func TestFlagRegistration(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	sc := Scenario(fs, "4x2", "scenario")
	mode := Mode(fs, "max", "mode")
	seed := Seed(fs, 1)
	if err := fs.Parse([]string{"-scenario", "1x1", "-mode", "fair", "-seed", "7"}); err != nil {
		t.Fatal(err)
	}
	if *sc != channel.Scenario1x1 || *mode != strategy.ModeFair || *seed != 7 {
		t.Fatalf("parsed %v %v %d", *sc, *mode, *seed)
	}

	// Defaults survive when flags are absent, and usage shows the name.
	fs2 := flag.NewFlagSet("t", flag.ContinueOnError)
	sc2 := Scenario(fs2, "3x2", "scenario")
	if err := fs2.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if *sc2 != channel.Scenario3x2 {
		t.Fatalf("default scenario = %v", *sc2)
	}
	if got := fs2.Lookup("scenario").DefValue; got != "3x2" {
		t.Fatalf("DefValue = %q", got)
	}

	// Bad values are rejected at parse time.
	fs3 := flag.NewFlagSet("t", flag.ContinueOnError)
	fs3.SetOutput(discard{})
	Scenario(fs3, "4x2", "scenario")
	if err := fs3.Parse([]string{"-scenario", "9x9"}); err == nil {
		t.Fatal("bad scenario passed flag parsing")
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

func TestCampaignFlags(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	cf := Campaign(fs)
	if err := fs.Parse([]string{"-shards", "16", "-workers", "3", "-checkpoint", "c.jsonl", "-resume"}); err != nil {
		t.Fatal(err)
	}
	if cf.Shards != 16 || cf.Workers != 3 || cf.Checkpoint != "c.jsonl" || !cf.Resume {
		t.Fatalf("parsed %+v", cf)
	}

	fs2 := flag.NewFlagSet("t", flag.ContinueOnError)
	cf2 := Campaign(fs2)
	if err := fs2.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if cf2.Shards != 0 || cf2.Workers < 1 || cf2.Checkpoint != "" || cf2.Resume {
		t.Fatalf("defaults %+v", cf2)
	}
}

func TestCampaignValidate(t *testing.T) {
	cases := []struct {
		name       string
		flags      CampaignFlags
		topologies int
		wantErr    bool
	}{
		{"defaults", CampaignFlags{Workers: 4}, 30, false},
		{"explicit shards", CampaignFlags{Shards: 8, Workers: 1}, 30, false},
		{"resume with checkpoint", CampaignFlags{Workers: 1, Checkpoint: "c", Resume: true}, 30, false},
		{"zero topologies", CampaignFlags{Workers: 4}, 0, true},
		{"negative topologies", CampaignFlags{Workers: 4}, -1, true},
		{"zero workers", CampaignFlags{Workers: 0}, 30, true},
		{"negative workers", CampaignFlags{Workers: -2}, 30, true},
		{"negative shards", CampaignFlags{Shards: -1, Workers: 4}, 30, true},
		{"shards exceed topologies", CampaignFlags{Shards: 31, Workers: 4}, 30, true},
		{"resume without checkpoint", CampaignFlags{Workers: 4, Resume: true}, 30, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.flags.Validate(tc.topologies)
			if (err != nil) != tc.wantErr {
				t.Fatalf("Validate(%d) = %v, wantErr=%v", tc.topologies, err, tc.wantErr)
			}
		})
	}
}

func TestDebugFlags(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	d := Debug(fs)
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	if err := fs.Parse([]string{"-v", "-trace-out", tracePath, "-trace-sample", "0.5"}); err != nil {
		t.Fatal(err)
	}
	if !d.Verbose || d.TraceOut != tracePath || d.TraceSample != 0.5 {
		t.Fatalf("parsed %+v", d)
	}

	shutdown, err := d.Start()
	if err != nil {
		t.Fatal(err)
	}
	if got := obs.TraceSampling(); got != 0.5 {
		t.Errorf("trace sampling = %v after Start, want 0.5", got)
	}
	obs.SetTraceSampling(1)
	defer obs.SetVerbose(false)
	_, sp := obs.StartSpan(context.Background(), "cliflags.test.span")
	sp.End()
	shutdown()

	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("-trace-out produced no file: %v", err)
	}
	var spans []obs.SpanRecord
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatalf("trace dump is not a JSON span array: %v", err)
	}
	found := false
	for _, s := range spans {
		found = found || s.Name == "cliflags.test.span"
	}
	if !found {
		t.Error("recorded span missing from -trace-out dump")
	}
}

func TestEffectiveShards(t *testing.T) {
	cases := []struct {
		shards, topologies, want int
	}{
		{8, 30, 8},       // explicit wins
		{0, 1, 1},        // tiny runs stay one shard
		{0, 3, 1},        // never zero
		{0, 30, 7},       // ~4 topologies per shard
		{0, 100, 25},     //
		{0, 100000, 256}, // clamped so the journal stays small
	}
	for _, tc := range cases {
		cf := CampaignFlags{Shards: tc.shards}
		if got := cf.EffectiveShards(tc.topologies); got != tc.want {
			t.Errorf("EffectiveShards(shards=%d, topologies=%d) = %d, want %d", tc.shards, tc.topologies, got, tc.want)
		}
	}
}
