package testbed

import (
	"context"
	"encoding/csv"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"copa/internal/campaign"
	"copa/internal/channel"
	"copa/internal/ofdm"
)

func readCSV(t *testing.T, path string) [][]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestExportFigureCSVs(t *testing.T) {
	dir := t.TempDir()

	if err := RunFigure2(1).ExportCSV(dir); err != nil {
		t.Fatal(err)
	}
	rows := readCSV(t, filepath.Join(dir, "fig2.csv"))
	if len(rows) != ofdm.NumSubcarriers+1 || len(rows[0]) != 3 {
		t.Errorf("fig2.csv shape %dx%d", len(rows), len(rows[0]))
	}

	if err := RunFigure4(1).ExportCSV(dir); err != nil {
		t.Fatal(err)
	}
	rows = readCSV(t, filepath.Join(dir, "fig4.csv"))
	if rows[0][1] != "snr_bf_db" {
		t.Errorf("fig4 header: %v", rows[0])
	}
	// Values parse as floats.
	if _, err := strconv.ParseFloat(rows[1][1], 64); err != nil {
		t.Errorf("fig4 value not numeric: %v", rows[1])
	}

	if err := RunFigure9(1, 5).ExportCSV(dir); err != nil {
		t.Fatal(err)
	}
	rows = readCSV(t, filepath.Join(dir, "fig9.csv"))
	if len(rows) != 11 {
		t.Errorf("fig9.csv rows %d, want 11", len(rows))
	}

	if err := ExportTable1CSV(dir); err != nil {
		t.Fatal(err)
	}
	rows = readCSV(t, filepath.Join(dir, "table1.csv"))
	if len(rows) != 4 {
		t.Errorf("table1.csv rows %d", len(rows))
	}

	f3run := RunFigure3(1, 4)
	if err := f3run.ExportCSV(dir); err != nil {
		t.Fatal(err)
	}
	rows = readCSV(t, filepath.Join(dir, "fig3.csv"))
	if len(rows) != len(f3run.PerTopologyINRReductionDB)+1 {
		t.Errorf("fig3.csv rows %d", len(rows))
	}
}

// TestExportScenarioCDF exports a scenario run's CDFs: every row's
// probability lies in (0, 1] and each scheme's curve ends at 1.
func TestExportScenarioCDF(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Topologies = 3
	cfg.SkipCOPAPlus = true
	res, err := RunScenario(context.Background(), channel.Scenario1x1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := ExportCampaignCSV(dir, res); err != nil {
		t.Fatal(err)
	}
	rows := readCSV(t, filepath.Join(dir, "campaign_1x1_cdf.csv"))
	last := make(map[string]float64)
	for _, r := range rows[1:] {
		p, err := strconv.ParseFloat(r[4], 64)
		if err != nil || p <= 0 || p > 1 {
			t.Fatalf("bad cdf value %v", r)
		}
		last[r[2]] = p
	}
	if len(last) != len(CampaignSummary(res, campaign.DefaultProfile, 0)) {
		t.Errorf("cdf covers schemes %v", last)
	}
	for scheme, p := range last {
		if p != 1 {
			t.Errorf("%s cdf ends at %g", scheme, p)
		}
	}
}
