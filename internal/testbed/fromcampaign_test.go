package testbed

import (
	"context"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"copa/internal/campaign"
	"copa/internal/channel"
)

// TestExportCampaignCSV smoke-tests the figure-export path from
// campaign aggregates.
func TestExportCampaignCSV(t *testing.T) {
	spec := campaign.Spec{
		Seed:         3,
		Scenario:     channel.Scenario1x1,
		Topologies:   4,
		Shards:       2,
		Profiles:     campaign.DefaultProfiles(),
		AgeBuckets:   2,
		SkipCOPAPlus: true,
	}
	res, err := campaign.Run(context.Background(), spec, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := ExportCampaignCSV(dir, res); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"campaign_1x1_summary.csv",
		"campaign_1x1_cdf.csv",
		"campaign_1x1_fig9_cdf.csv",
	} {
		if rows := readCSV(t, filepath.Join(dir, name)); len(rows) < 2 {
			t.Errorf("%s: %d rows, want header + data", name, len(rows))
		}
	}
}

// TestExportCampaignCSVNamesDoNotCollide writes campaigns that differ
// only in interference delta or decoder model into one directory: each
// must get its own files, so none overwrites another.
func TestExportCampaignCSVNamesDoNotCollide(t *testing.T) {
	dir := t.TempDir()
	for _, cfg := range []struct {
		deltaDB float64
		multi   bool
	}{{0, false}, {-10, false}, {0, true}, {-10, true}} {
		res := &campaign.Result{Spec: campaign.Spec{
			Scenario:            channel.Scenario4x2,
			Profiles:            campaign.DefaultProfiles(),
			AgeBuckets:          1,
			InterferenceDeltaDB: cfg.deltaDB,
			MultiDecoder:        cfg.multi,
		}}
		if err := ExportCampaignCSV(dir, res); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	want := []string{
		"campaign_4x2_-10dB_cdf.csv", "campaign_4x2_-10dB_multidecoder_cdf.csv",
		"campaign_4x2_-10dB_multidecoder_summary.csv", "campaign_4x2_-10dB_summary.csv",
		"campaign_4x2_cdf.csv", "campaign_4x2_multidecoder_cdf.csv",
		"campaign_4x2_multidecoder_summary.csv", "campaign_4x2_summary.csv",
	}
	if !slices.Equal(names, want) {
		t.Fatalf("files %v, want %v", names, want)
	}
}
