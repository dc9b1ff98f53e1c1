package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"copa/internal/campaign"
	"copa/internal/mac"
	"copa/internal/testbed"
	"copa/internal/viz"
)

// report accumulates -out's report.html: one self-contained HTML page
// with every printed figure rendered as inline SVG (CDFs, per-subcarrier
// curves, the topology scatter) or as a table, each annotated with the
// paper's own numbers. The sections are built from the results the
// figures just printed. A nil *report (no -out) discards every section.
type report struct{ b strings.Builder }

func newReport(seed int64, topologies int) *report {
	r := &report{}
	r.b.WriteString(`<!DOCTYPE html><html><head><meta charset="utf-8">
<title>COPA reproduction report</title>
<style>body{font-family:sans-serif;max-width:900px;margin:2em auto;padding:0 1em}
h2{border-bottom:1px solid #ccc;padding-bottom:4px}
table{border-collapse:collapse}td,th{border:1px solid #999;padding:4px 10px;text-align:right}
th:first-child,td:first-child{text-align:left}.paper{color:#888}</style></head><body>
<h1>COPA — reproduction report</h1>
<p>Every figure and table of the CoNEXT 2015 evaluation, regenerated on the
simulated testbed (seed `)
	fmt.Fprintf(&r.b, "%d, %d topologies). Grey values are the paper's.</p>", seed, topologies)
	return r
}

// section appends one titled section whose body render writes.
func (r *report) section(title string, render func(b *strings.Builder)) {
	if r == nil {
		return
	}
	fmt.Fprintf(&r.b, "<h2>%s</h2>", title)
	render(&r.b)
}

// write closes the page and writes it to dir/report.html.
func (r *report) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "report.html"), []byte(r.b.String()+"</body></html>"), 0o644)
}

// perSubcarrier is one curve over the subcarrier index.
func perSubcarrier(name string, ys []float64) viz.Series {
	s := viz.Series{Name: name}
	for k, v := range ys {
		s.X = append(s.X, float64(k))
		s.Y = append(s.Y, v)
	}
	return s
}

func (r *report) figure2(f testbed.Figure2) {
	r.section("Figure 2 — narrow-band fading", func(b *strings.Builder) {
		ch := viz.Chart{Title: "Received power per subcarrier", XLabel: "subcarrier", YLabel: "dBm"}
		for a := range f.PowerDBm {
			ch.Series = append(ch.Series, perSubcarrier(fmt.Sprintf("antenna %d", a+1), f.PowerDBm[a]))
		}
		b.WriteString(ch.SVG())
	})
}

func (r *report) figure3(f testbed.Figure3) {
	r.section("Figure 3 — end-to-end effect of nulling", func(b *strings.Builder) {
		fmt.Fprintf(b, `<table><tr><th></th><th>measured</th><th class="paper">paper</th></tr>
<tr><td>INR reduction</td><td>%+.1f dB (σ %.1f)</td><td class="paper">≈−27 dB</td></tr>
<tr><td>SNR reduction</td><td>%+.1f dB (σ %.1f)</td><td class="paper">≈−8 dB</td></tr>
<tr><td>SINR increase</td><td>%+.1f dB (σ %.1f)</td><td class="paper">≈+18 dB</td></tr></table>`,
			f.INRReductionMeanDB, f.INRReductionStdDB,
			f.SNRReductionMeanDB, f.SNRReductionStdDB,
			f.SINRIncreaseMeanDB, f.SINRIncreaseStdDB)
	})
}

func (r *report) figure4(f testbed.Figure4) {
	r.section("Figure 4 — per-subcarrier effects of nulling", func(b *strings.Builder) {
		ch := viz.Chart{Title: "S(I)NR per subcarrier", XLabel: "subcarrier", YLabel: "dB"}
		ch.Series = []viz.Series{
			perSubcarrier("SNR BF", f.SNRBFDB),
			perSubcarrier("SNR Null", f.SNRNullDB),
			perSubcarrier("SINR Null", f.SINRNullDB),
		}
		b.WriteString(ch.SVG())
	})
}

func (r *report) table1(rows []mac.OverheadRow) {
	r.section("Table 1 — MAC overhead", func(b *strings.Builder) {
		b.WriteString(`<table><tr><th>coherence</th><th>COPA conc</th><th>COPA seq</th><th>CSMA CTS</th><th>CSMA RTS/CTS</th></tr>`)
		paper := [][4]float64{{9.3, 7.7, 2.7, 3.7}, {5.1, 3.5, 2.7, 3.7}, {4.5, 2.8, 2.7, 3.7}}
		for i, row := range rows {
			p := paper[i]
			fmt.Fprintf(b, `<tr><td>%s</td><td>%.1f%% <span class="paper">(%.1f)</span></td><td>%.1f%% <span class="paper">(%.1f)</span></td><td>%.1f%% <span class="paper">(%.1f)</span></td><td>%.1f%% <span class="paper">(%.1f)</span></td></tr>`,
				row.Coherence, row.COPAConc*100, p[0], row.COPASeq*100, p[1], row.CSMACTS*100, p[2], row.CSMARTS*100, p[3])
		}
		b.WriteString(`</table>`)
	})
}

func (r *report) figure7(f testbed.Figure7) {
	r.section("Figure 7 — BER per subcarrier under the same nulling precoder", func(b *strings.Builder) {
		if len(f.BERCOPA) == 0 {
			b.WriteString("<p>(no illustrative topology found)</p>")
			return
		}
		ch := viz.Chart{Title: fmt.Sprintf("COPA %s %.1f Mb/s vs NoPA %s %.1f Mb/s",
			f.COPAMCS, f.COPAMbps, f.NoPAMCS, f.NoPAMbps),
			XLabel: "subcarrier", YLabel: "uncoded BER", LogY: true}
		copaS := viz.Series{Name: "COPA", Dots: true}
		nopaS := viz.Series{Name: "NoPA", Dots: true}
		drops := 0
		for k := range f.BERCOPA {
			if f.Dropped[k] {
				drops++
			}
			if !f.Dropped[k] && f.BERCOPA[k] > 1e-12 {
				copaS.X = append(copaS.X, float64(k))
				copaS.Y = append(copaS.Y, f.BERCOPA[k])
			}
			if f.BERNoPA[k] > 1e-12 {
				nopaS.X = append(nopaS.X, float64(k))
				nopaS.Y = append(nopaS.Y, f.BERNoPA[k])
			}
		}
		ch.Series = []viz.Series{copaS, nopaS}
		b.WriteString(ch.SVG())
		fmt.Fprintf(b, "<p>COPA drops %d subcarriers (vertical gaps). Paper: 8 drops, 32.4 vs 12.6 Mb/s.</p>", drops)
	})
}

func (r *report) figure9(f testbed.Figure9) {
	r.section("Figure 9 — topology scatter", func(b *strings.Builder) {
		ch := viz.Chart{Title: "Interference vs signal power", XLabel: "signal (dBm)", YLabel: "interference (dBm)"}
		ch.Series = []viz.Series{
			{Name: "clients", X: f.SignalDBm, Y: f.InterferenceDBm, Dots: true},
			{Name: "x = y", X: []float64{-70, -30}, Y: []float64{-70, -30}, Color: "#999"},
		}
		b.WriteString(ch.SVG())
	})
}

// scenarioSections titles the report's Figs. 10–13 sections and charts.
var scenarioSections = map[int]struct{ section, chart string }{
	10: {"Figure 10 — 1×1 scenario", "Throughput CDF, 1x1"},
	11: {"Figure 11 — 4×2 constrained", "Throughput CDF, 4x2"},
	12: {"Figure 12 — 4×2, interference −10 dB", "Throughput CDF, 4x2 weak interference"},
	13: {"Figure 13 — 3×2 overconstrained", "Throughput CDF, 3x2"},
}

// scenario renders one of Figs. 10–13: a throughput CDF per scheme and
// the per-scheme means next to the paper's.
func (r *report) scenario(fig int, res *campaign.Result) {
	titles := scenarioSections[fig]
	r.section(titles.section, func(b *strings.Builder) {
		rows := testbed.CampaignSummary(res, campaign.DefaultProfile, 0)
		ch := viz.Chart{Title: titles.chart, XLabel: "aggregate throughput (Mb/s)", YLabel: "CDF"}
		for _, row := range rows {
			s := viz.Series{Name: row.Scheme, Step: true}
			for _, pt := range testbed.CampaignCDF(res, campaign.ColumnName(campaign.DefaultProfile, 0, row.Scheme)) {
				s.X = append(s.X, pt.Value/1e6)
				s.Y = append(s.Y, pt.P)
			}
			ch.Series = append(ch.Series, s)
		}
		b.WriteString(ch.SVG())
		b.WriteString(`<table><tr><th>scheme</th><th>mean (Mb/s)</th><th class="paper">paper</th></tr>`)
		for _, row := range rows {
			ref := "—"
			if p, ok := testbed.PaperMeansMbps[fig][row.Scheme]; ok {
				ref = fmt.Sprintf("%.1f", p)
			}
			fmt.Fprintf(b, `<tr><td>%s</td><td>%.1f</td><td class="paper">%s</td></tr>`,
				row.Scheme, row.MeanBps/1e6, ref)
		}
		b.WriteString(`</table>`)
	})
}

func (r *report) figure14(f testbed.Figure14) {
	r.section("Figure 14 — multiple decoders", func(b *strings.Builder) {
		b.WriteString(`<table><tr><th>scheme</th><th>1×1</th><th>4×2</th><th>3×2</th></tr>`)
		for _, scheme := range testbed.Figure14Schemes {
			fmt.Fprintf(b, `<tr><td>%s</td>`, scheme)
			for _, sc := range []string{"1x1", "4x2", "3x2"} {
				fmt.Fprintf(b, `<td>%+.1f%%</td>`, f.Improvement[sc][scheme])
			}
			b.WriteString(`</tr>`)
		}
		b.WriteString(`</table><p>% improvement over 1-decoder CSMA.</p>`)
	})
}
