// Package viz renders the evaluation's figures as standalone SVG charts
// using only the standard library: line and step-CDF series, scatter
// plots, axes with human-friendly tick values, and legends. It exists so
// `copasim -out` can write a self-contained HTML report of every paper
// figure without external plotting dependencies.
package viz

import (
	"fmt"
	"math"
	"strings"
)

// Series is one plotted data set.
type Series struct {
	Name string
	X, Y []float64
	// Color is any SVG color; assigned from a palette when empty.
	Color string
	// Step draws a step function (for empirical CDFs).
	Step bool
	// Dots draws markers at each point instead of a line (scatter).
	Dots bool
}

// Chart is a 2-D figure with axes and a legend.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	// LogY plots the Y axis in log10 (all Y values must be positive).
	LogY   bool
	Series []Series
}

var palette = []string{"#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf"}

// Every chart is a 640×400 SVG.
const (
	width, height = 640, 400
	marginLeft    = 64
	marginRight   = 16
	marginTop     = 36
	marginBottom  = 48
)

// niceTicks returns ~n human-friendly tick values covering [lo, hi].
func niceTicks(lo, hi float64, n int) []float64 {
	if n < 2 {
		n = 2
	}
	if hi <= lo {
		hi = lo + 1
	}
	rawStep := (hi - lo) / float64(n)
	mag := math.Pow(10, math.Floor(math.Log10(rawStep)))
	norm := rawStep / mag
	var step float64
	switch {
	case norm < 1.5:
		step = 1
	case norm < 3:
		step = 2
	case norm < 7:
		step = 5
	default:
		step = 10
	}
	step *= mag
	start := math.Ceil(lo/step) * step
	var ticks []float64
	for v := start; v <= hi+step/1e9; v += step {
		ticks = append(ticks, v)
	}
	return ticks
}

// dataRange returns the min/max over all series for the selected axis.
func (c *Chart) dataRange(yAxis bool) (float64, float64) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range c.Series {
		vals := s.X
		if yAxis {
			vals = s.Y
		}
		for _, v := range vals {
			if c.LogY && yAxis {
				if v <= 0 {
					continue
				}
				v = math.Log10(v)
			}
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
	}
	if math.IsInf(lo, 1) {
		return 0, 1
	}
	if lo == hi {
		lo, hi = lo-1, hi+1
	}
	return lo, hi
}

// SVG renders the chart.
func (c *Chart) SVG() string {
	plotW := float64(width - marginLeft - marginRight)
	plotH := float64(height - marginTop - marginBottom)

	xlo, xhi := c.dataRange(false)
	ylo, yhi := c.dataRange(true)
	// A little headroom on Y.
	pad := (yhi - ylo) * 0.05
	ylo, yhi = ylo-pad, yhi+pad

	px := func(x float64) float64 { return marginLeft + (x-xlo)/(xhi-xlo)*plotW }
	py := func(y float64) float64 {
		if c.LogY {
			y = math.Log10(math.Max(y, 1e-300))
		}
		return marginTop + plotH - (y-ylo)/(yhi-ylo)*plotH
	}

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif" font-size="11">`, width, height)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`, width, height)
	fmt.Fprintf(&b, `<text x="%d" y="18" font-size="14" font-weight="bold">%s</text>`, marginLeft, esc(c.Title))

	// Axes.
	fmt.Fprintf(&b, `<line x1="%d" y1="%g" x2="%g" y2="%g" stroke="black"/>`,
		marginLeft, marginTop+plotH, marginLeft+plotW, marginTop+plotH)
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%g" stroke="black"/>`,
		marginLeft, marginTop, marginLeft, marginTop+plotH)

	for _, t := range niceTicks(xlo, xhi, 6) {
		x := px(t)
		fmt.Fprintf(&b, `<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="#ccc"/>`, x, float64(marginTop), x, marginTop+plotH)
		fmt.Fprintf(&b, `<text x="%g" y="%g" text-anchor="middle">%s</text>`, x, marginTop+plotH+16, fmtTick(t))
	}
	for _, t := range niceTicks(ylo, yhi, 6) {
		y := marginTop + plotH - (t-ylo)/(yhi-ylo)*plotH
		label := t
		if c.LogY {
			label = math.Pow(10, t)
		}
		fmt.Fprintf(&b, `<line x1="%d" y1="%g" x2="%g" y2="%g" stroke="#ccc"/>`, marginLeft, y, marginLeft+plotW, y)
		fmt.Fprintf(&b, `<text x="%d" y="%g" text-anchor="end">%s</text>`, marginLeft-6, y+4, fmtTick(label))
	}
	fmt.Fprintf(&b, `<text x="%g" y="%d" text-anchor="middle">%s</text>`,
		marginLeft+plotW/2, height-10, esc(c.XLabel))
	fmt.Fprintf(&b, `<text x="14" y="%g" text-anchor="middle" transform="rotate(-90 14 %g)">%s</text>`,
		marginTop+plotH/2, marginTop+plotH/2, esc(c.YLabel))

	// Series.
	for i, s := range c.Series {
		color := s.Color
		if color == "" {
			color = palette[i%len(palette)]
		}
		switch {
		case s.Dots:
			for j := range s.X {
				fmt.Fprintf(&b, `<circle cx="%g" cy="%g" r="3" fill="%s" fill-opacity="0.7"/>`,
					px(s.X[j]), py(s.Y[j]), color)
			}
		default:
			var pts []string
			for j := range s.X {
				if s.Step && j > 0 {
					pts = append(pts, fmt.Sprintf("%g,%g", px(s.X[j]), py(s.Y[j-1])))
				}
				pts = append(pts, fmt.Sprintf("%g,%g", px(s.X[j]), py(s.Y[j])))
			}
			fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="1.8"/>`,
				strings.Join(pts, " "), color)
		}
		// Legend entry.
		ly := marginTop + 8 + float64(i)*16
		lx := marginLeft + plotW - 150
		fmt.Fprintf(&b, `<rect x="%g" y="%g" width="10" height="10" fill="%s"/>`, lx, ly, color)
		fmt.Fprintf(&b, `<text x="%g" y="%g">%s</text>`, lx+14, ly+9, esc(s.Name))
	}
	b.WriteString(`</svg>`)
	return b.String()
}

func fmtTick(v float64) string {
	av := math.Abs(v)
	switch {
	case v == 0:
		return "0"
	case av >= 1e6:
		return fmt.Sprintf("%.3g", v)
	case av < 1e-3:
		return fmt.Sprintf("%.0e", v)
	case av < 10:
		return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.2f", v), "0"), ".")
	default:
		return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.1f", v), "0"), ".")
	}
}

func esc(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	return r.Replace(s)
}
