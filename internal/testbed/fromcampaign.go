package testbed

import (
	"fmt"
	"io"

	"copa/internal/campaign"
)

// This file is the figure-generation layer over campaign aggregates:
// the summary rows, CDFs and CSVs of Figs. 10–13 (and Fig. 9's
// distributions), computed from the streamed Moments + quantile
// sketches every scenario run produces — so population figures never
// hold per-topology samples.

// SchemeSummary is one scheme's headline row (the per-scheme line
// copasim prints for Figs. 10–13), computed from merged aggregates.
type SchemeSummary struct {
	Scheme string
	N      uint64
	// Throughputs in bits/s: mean/std from the moments, quantiles from
	// the sketch (the midpoint of the bucket holding the nearest-rank
	// sample, within 0.39% of it).
	MeanBps, StdBps           float64
	P10Bps, MedianBps, P90Bps float64
}

// CampaignSummary extracts the per-scheme summary rows of one
// (profile, age) grid cell, in the paper's presentation order. Schemes
// infeasible in the scenario (Null for 1×1) are absent.
func CampaignSummary(res *campaign.Result, profile string, age int) []SchemeSummary {
	var rows []SchemeSummary
	for _, scheme := range AllSchemes {
		col := res.SchemeColumn(profile, age, scheme)
		if col == nil {
			continue
		}
		rows = append(rows, SchemeSummary{
			Scheme:    scheme,
			N:         col.Moments.N,
			MeanBps:   col.Moments.Mean,
			StdBps:    col.Moments.StdDev(),
			P10Bps:    col.Sketch.Quantile(0.10),
			MedianBps: col.Sketch.Quantile(0.50),
			P90Bps:    col.Sketch.Quantile(0.90),
		})
	}
	return rows
}

// WriteSummary prints one grid cell's CampaignSummary rows, one line per
// scheme in Mb/s — the table copasim prints for Figs. 10–13 and
// copacampaign prints per cell.
func WriteSummary(w io.Writer, res *campaign.Result, profile string, age int) {
	for _, row := range CampaignSummary(res, profile, age) {
		fmt.Fprintf(w, "  %-10s  mean %6.1f Mb/s   p10 %6.1f   median %6.1f   p90 %6.1f\n",
			row.Scheme, row.MeanBps/1e6, row.P10Bps/1e6, row.MedianBps/1e6, row.P90Bps/1e6)
	}
}

// CampaignCDF returns a column's cumulative distribution, one point per
// occupied sketch bucket, or nil if the column is absent.
func CampaignCDF(res *campaign.Result, name string) []campaign.CDFPoint {
	col := res.Column(name)
	if col == nil {
		return nil
	}
	return col.Sketch.CDF()
}

// csvSlug names a campaign's CSV files by everything that sets its
// population apart: scenario, interference delta and decoder model
// ("4x2", "4x2_-10dB", "1x1_multidecoder"), so campaigns that differ
// only there can share an output directory.
func csvSlug(spec campaign.Spec) string {
	slug := spec.Scenario.Name
	if spec.InterferenceDeltaDB != 0 {
		slug += fmt.Sprintf("_%+gdB", spec.InterferenceDeltaDB)
	}
	if spec.MultiDecoder {
		slug += "_multidecoder"
	}
	return slug
}

// ExportCampaignCSV writes the campaign's figure data into dir:
// campaign_<slug>_summary.csv with one row per (profile, age, scheme),
// campaign_<slug>_cdf.csv with every scheme column's throughput CDF
// (the Figs. 10–13 curves), and — when the Fig. 9 columns are present —
// campaign_<slug>_fig9_cdf.csv with the signal/interference power
// distributions. The slug is the scenario name plus any interference
// delta and decoder model (see csvSlug).
func ExportCampaignCSV(dir string, res *campaign.Result) error {
	slug := csvSlug(res.Spec)
	sum := [][]string{{"profile", "age", "scheme", "n", "mean_bps", "std_bps", "p10_bps", "median_bps", "p90_bps"}}
	cdf := [][]string{{"profile", "age", "scheme", "value_bps", "p"}}
	for _, prof := range res.Spec.Profiles {
		for age := 0; age < res.Spec.AgeBuckets; age++ {
			for _, row := range CampaignSummary(res, prof.Name, age) {
				sum = append(sum, []string{
					prof.Name, fmt.Sprint(age), row.Scheme, fmt.Sprint(row.N),
					fmt.Sprintf("%.0f", row.MeanBps), fmt.Sprintf("%.0f", row.StdBps),
					fmt.Sprintf("%.0f", row.P10Bps), fmt.Sprintf("%.0f", row.MedianBps), fmt.Sprintf("%.0f", row.P90Bps),
				})
			}
			for _, scheme := range AllSchemes {
				for _, p := range CampaignCDF(res, campaign.ColumnName(prof.Name, age, scheme)) {
					cdf = append(cdf, []string{
						prof.Name, fmt.Sprint(age), scheme,
						fmt.Sprintf("%.0f", p.Value), fmt.Sprintf("%.6f", p.P),
					})
				}
			}
		}
	}
	if err := writeCSV(dir, fmt.Sprintf("campaign_%s_summary.csv", slug), sum); err != nil {
		return err
	}
	if err := writeCSV(dir, fmt.Sprintf("campaign_%s_cdf.csv", slug), cdf); err != nil {
		return err
	}
	if res.Column(campaign.ColFig9Signal) == nil {
		return nil
	}
	fig9 := [][]string{{"series", "value_dbm", "p"}}
	for _, col := range []string{campaign.ColFig9Signal, campaign.ColFig9Interference} {
		for _, p := range CampaignCDF(res, col) {
			fig9 = append(fig9, []string{col, fmt.Sprintf("%.2f", p.Value), fmt.Sprintf("%.6f", p.P)})
		}
	}
	return writeCSV(dir, fmt.Sprintf("campaign_%s_fig9_cdf.csv", slug), fig9)
}
