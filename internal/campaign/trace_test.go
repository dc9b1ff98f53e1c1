package campaign

import (
	"context"
	"path/filepath"
	"testing"

	"copa/internal/obs"
)

// TestCampaignTraceStitching runs a checkpointed campaign under a
// caller-rooted trace and checks the hierarchy: campaign.run is a
// child of the caller, every unit and checkpoint span hangs off
// campaign.run, and their counts match the spec's unit count.
func TestCampaignTraceStitching(t *testing.T) {
	spec := testSpec()
	ckpt := filepath.Join(t.TempDir(), "trace.jsonl")

	ctx, root := obs.StartSpan(context.Background(), "caller")
	if _, err := Run(ctx, spec, Options{Workers: 2, Checkpoint: ckpt}); err != nil {
		t.Fatal(err)
	}
	rootSC := root.Context()
	root.End()
	if !rootSC.Valid() {
		t.Skip("trace sampling disabled in this process")
	}

	spans := obs.Tracing().TraceSpans(rootSC.TraceID.String())
	var runID string
	units, checkpoints := 0, 0
	for _, s := range spans {
		if s.Name == "campaign.run" {
			runID = s.ID
			if s.Parent != rootSC.SpanID.String() {
				t.Errorf("campaign.run parented to %q, want caller %q", s.Parent, rootSC.SpanID)
			}
		}
	}
	if runID == "" {
		t.Fatalf("campaign.run missing from trace; got %d spans", len(spans))
	}
	for _, s := range spans {
		switch s.Name {
		case "campaign.unit":
			units++
			if s.Parent != runID {
				t.Errorf("campaign.unit parented to %q, want campaign.run %q", s.Parent, runID)
			}
			if unitAttr(s) == "" {
				t.Error("campaign.unit span missing unit attribute")
			}
		case "campaign.checkpoint":
			checkpoints++
			if s.Parent != runID {
				t.Errorf("campaign.checkpoint parented to %q, want campaign.run %q", s.Parent, runID)
			}
		}
	}
	if want := spec.Units(); units != want || checkpoints != want {
		t.Errorf("got %d unit spans and %d checkpoint spans, want %d of each", units, checkpoints, want)
	}
}

// TestUntracedRunRecordsNoSpans: a campaign run under a plain context
// records no spans; only a caller's sampled trace makes it traced.
func TestUntracedRunRecordsNoSpans(t *testing.T) {
	before := obs.Tracing().Total()
	if _, err := Run(context.Background(), testSpec(), Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if got := obs.Tracing().Total(); got != before {
		t.Fatalf("untraced Run recorded %d spans, want 0", got-before)
	}
}

// TestCampaignRunSpanRecordsError: a traced run that fails — here on a
// checkpoint that exists but was opened without Resume — ends its
// campaign.run span with the error's text.
func TestCampaignRunSpanRecordsError(t *testing.T) {
	spec := testSpec()
	ckpt := filepath.Join(t.TempDir(), "existing.jsonl")
	jnl, _, err := openJournal(ckpt, spec, false)
	if err != nil {
		t.Fatal(err)
	}
	jnl.Close()

	ctx, root := obs.StartSpan(context.Background(), "caller")
	_, runErr := Run(ctx, spec, Options{Workers: 2, Checkpoint: ckpt})
	rootSC := root.Context()
	root.End()
	if runErr == nil {
		t.Fatal("Run reopened an existing checkpoint without Resume")
	}
	if !rootSC.Valid() {
		t.Skip("trace sampling disabled in this process")
	}
	for _, s := range obs.Tracing().TraceSpans(rootSC.TraceID.String()) {
		if s.Name == "campaign.run" {
			if s.Err != runErr.Error() {
				t.Fatalf("campaign.run err = %q, want %q", s.Err, runErr)
			}
			return
		}
	}
	t.Fatal("campaign.run missing from the caller's trace")
}

func unitAttr(s obs.SpanRecord) string {
	for _, a := range s.Attrs {
		if a.Key == "unit" {
			return a.Value
		}
	}
	return ""
}

// TestCampaignShardProgressGauges checks the per-shard completion
// gauges land at 1.0 after a full run and that the ETA gauge returns
// to zero with no work remaining.
func TestCampaignShardProgressGauges(t *testing.T) {
	spec := testSpec()
	if _, err := Run(context.Background(), spec, Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	for sh, g := range shardGauges(spec.Shards) {
		if v := g.Value(); v != 1.0 {
			t.Errorf("shard %d progress = %v, want 1.0", sh, v)
		}
	}
	if v := mETASeconds.Value(); v != 0 {
		t.Errorf("eta_seconds = %v after completion, want 0", v)
	}
}
