package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"copa/internal/campaign"
)

// campaignArgs is the small, fast base invocation the tests share.
func campaignArgs(extra ...string) []string {
	return append([]string{
		"-scenario", "1x1", "-topologies", "4", "-shards", "2",
		"-skip-copa-plus", "-q",
	}, extra...)
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "result.json")
	if code := run(campaignArgs("-out", out, "-csv", dir), os.Stdout); code != 0 {
		t.Fatalf("exit code %d", code)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var res campaign.Result
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("output is not a Result: %v", err)
	}
	if res.Spec.Topologies != 4 || res.Units != res.Spec.Units() {
		t.Fatalf("unexpected result shape: %+v", res.Spec)
	}
	if col := res.SchemeColumn("default", 0, campaign.SchemeCOPA); col == nil || col.Moments.N != 4 {
		t.Fatalf("COPA column missing or wrong count: %+v", col)
	}
	if _, err := os.Stat(filepath.Join(dir, "campaign_1x1_summary.csv")); err != nil {
		t.Errorf("csv export missing: %v", err)
	}
}

func TestRunDeterministicAcrossWorkers(t *testing.T) {
	dir := t.TempDir()
	var outs [][]byte
	for _, workers := range []string{"1", "4"} {
		out := filepath.Join(dir, "w"+workers+".json")
		if code := run(campaignArgs("-workers", workers, "-out", out), os.Stdout); code != 0 {
			t.Fatalf("workers=%s: exit code %d", workers, code)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, data)
	}
	if string(outs[0]) != string(outs[1]) {
		t.Fatal("-workers 1 and -workers 4 produced different bytes")
	}
}

func TestRunSummaryOutput(t *testing.T) {
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	args := []string{"-scenario", "1x1", "-topologies", "2", "-shards", "1", "-skip-copa-plus"}
	if code := run(args, out); code != 0 {
		t.Fatalf("exit code %d", code)
	}
	data, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, want := range []string{"1x1", "profile default", "CSMA", "COPA", "mean", "median"} {
		if !strings.Contains(text, want) {
			t.Errorf("summary missing %q in:\n%s", want, text)
		}
	}
}

func TestRunFlagValidation(t *testing.T) {
	cases := [][]string{
		campaignArgs("-workers", "0"),
		campaignArgs("-workers", "-3"),
		{"-topologies", "0", "-q"},
		campaignArgs("-shards", "9"), // > topologies
		campaignArgs("-resume"),      // without -checkpoint
		campaignArgs("-profiles", "nonsense"),
		{"-mobility", "-checkpoint", "c.jsonl", "-q"}, // -mobility has no units to journal
		{"-mobility", "-resume", "-q"},
	}
	for _, args := range cases {
		if code := run(args, os.Stdout); code != 2 {
			t.Errorf("args %v: exit code %d, want 2", args, code)
		}
	}
}

func TestRunCheckpointRefusal(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "c.jsonl")
	if err := os.WriteFile(ckpt, []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run(campaignArgs("-checkpoint", ckpt), os.Stdout); code != 1 {
		t.Errorf("existing checkpoint without -resume: exit code %d, want 1", code)
	}
}

func TestRunWithCheckpointAndResume(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "c.jsonl")
	out1 := filepath.Join(dir, "a.json")
	out2 := filepath.Join(dir, "b.json")
	if code := run(campaignArgs("-checkpoint", ckpt, "-out", out1), os.Stdout); code != 0 {
		t.Fatalf("first run: exit code %d", code)
	}
	// Resuming the (complete) checkpoint recomputes nothing and emits
	// identical bytes.
	if code := run(campaignArgs("-checkpoint", ckpt, "-resume", "-out", out2), os.Stdout); code != 0 {
		t.Fatalf("resume run: exit code %d", code)
	}
	a, _ := os.ReadFile(out1)
	b, _ := os.ReadFile(out2)
	if string(a) != string(b) {
		t.Fatal("resume produced different bytes")
	}
}

func TestSplitComma(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"default", []string{"default"}},
		{"default,perfect", []string{"default", "perfect"}},
		{"default,", []string{"default"}},
	}
	for _, tc := range cases {
		got := splitComma(tc.in)
		if len(got) != len(tc.want) {
			t.Errorf("splitComma(%q) = %v, want %v", tc.in, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("splitComma(%q) = %v, want %v", tc.in, got, tc.want)
			}
		}
	}
}
