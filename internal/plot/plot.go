// Package plot renders line charts as standalone SVG documents using only
// the standard library, so the study's figures (2a-2c, 3-6) come out of
// the harness as viewable graphics and not just CSV. The visual grammar
// follows the paper's figures: power cap on the x axis (descending, as
// the tables read), one colored series per algorithm or data-set size,
// a legend, and light grid lines.
package plot

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Series is one polyline of the chart.
type Series struct {
	Label string
	X, Y  []float64
}

// Options configures a chart.
type Options struct {
	Title  string
	XLabel string
	YLabel string
	// Width and Height are the SVG pixel dimensions (default 720x440).
	Width, Height int
}

// palette is a color-blind-friendly categorical palette.
var palette = []string{
	"#4477AA", "#EE6677", "#228833", "#CCBB44",
	"#66CCEE", "#AA3377", "#BBBBBB", "#222222",
	"#999933", "#882255",
}

type span struct{ lo, hi float64 }

func (s span) size() float64 { return s.hi - s.lo }

func dataSpan(series []Series, pick func(Series) []float64) span {
	sp := span{math.Inf(1), math.Inf(-1)}
	for _, s := range series {
		for _, v := range pick(s) {
			if v < sp.lo {
				sp.lo = v
			}
			if v > sp.hi {
				sp.hi = v
			}
		}
	}
	if math.IsInf(sp.lo, 1) {
		return span{0, 1}
	}
	if sp.size() == 0 {
		return span{sp.lo - 1, sp.hi + 1}
	}
	return sp
}

// niceTicks returns ~n rounded tick positions covering sp.
func niceTicks(sp span, n int) []float64 {
	if n < 2 {
		n = 2
	}
	raw := sp.size() / float64(n)
	mag := math.Pow(10, math.Floor(math.Log10(raw)))
	var step float64
	switch {
	case raw/mag >= 5:
		step = 10 * mag
	case raw/mag >= 2:
		step = 5 * mag
	case raw/mag >= 1:
		step = 2 * mag
	default:
		step = mag
	}
	var ticks []float64
	for v := math.Ceil(sp.lo/step) * step; v <= sp.hi+1e-12; v += step {
		ticks = append(ticks, v)
	}
	return ticks
}

func fmtTick(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e6 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.2g", v)
}

// WriteSVG renders the chart.
func WriteSVG(w io.Writer, opt Options, series []Series) error {
	if opt.Width <= 0 {
		opt.Width = 720
	}
	if opt.Height <= 0 {
		opt.Height = 440
	}
	const (
		mLeft, mRight, mTop, mBottom = 64, 160, 40, 52
	)
	pw := float64(opt.Width - mLeft - mRight)
	ph := float64(opt.Height - mTop - mBottom)
	if pw <= 0 || ph <= 0 {
		return fmt.Errorf("plot: dimensions too small")
	}

	xs := dataSpan(series, func(s Series) []float64 { return s.X })
	ys := dataSpan(series, func(s Series) []float64 { return s.Y })
	pad := ys.size() * 0.08
	ys = span{ys.lo - pad, ys.hi + pad}

	px := func(x float64) float64 {
		return float64(mLeft) + (x-xs.lo)/xs.size()*pw
	}
	py := func(y float64) float64 {
		return float64(mTop) + (1-(y-ys.lo)/ys.size())*ph
	}

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif">`+"\n",
		opt.Width, opt.Height)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`+"\n", opt.Width, opt.Height)
	fmt.Fprintf(&b, `<text x="%d" y="24" font-size="16" font-weight="bold">%s</text>`+"\n", mLeft, esc(opt.Title))

	// Grid + ticks.
	for _, t := range niceTicks(xs, 8) {
		x := px(t)
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%.1f" stroke="#e0e0e0"/>`+"\n",
			x, mTop, x, float64(mTop)+ph)
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-size="11" text-anchor="middle">%s</text>`+"\n",
			x, float64(mTop)+ph+16, fmtTick(t))
	}
	for _, t := range niceTicks(ys, 6) {
		y := py(t)
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#e0e0e0"/>`+"\n",
			mLeft, y, float64(mLeft)+pw, y)
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" font-size="11" text-anchor="end">%s</text>`+"\n",
			mLeft-6, y+4, fmtTick(t))
	}
	// Axes.
	fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%.1f" height="%.1f" fill="none" stroke="#555"/>`+"\n",
		mLeft, mTop, pw, ph)
	fmt.Fprintf(&b, `<text x="%.1f" y="%d" font-size="12" text-anchor="middle">%s</text>`+"\n",
		float64(mLeft)+pw/2, opt.Height-12, esc(opt.XLabel))
	fmt.Fprintf(&b, `<text x="16" y="%.1f" font-size="12" text-anchor="middle" transform="rotate(-90 16 %.1f)">%s</text>`+"\n",
		float64(mTop)+ph/2, float64(mTop)+ph/2, esc(opt.YLabel))

	// Series + legend.
	for i, s := range series {
		color := palette[i%len(palette)]
		var pts []string
		for j := range s.X {
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", px(s.X[j]), py(s.Y[j])))
		}
		fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="2"/>`+"\n",
			strings.Join(pts, " "), color)
		for j := range s.X {
			fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="2.6" fill="%s"/>`+"\n",
				px(s.X[j]), py(s.Y[j]), color)
		}
		ly := float64(mTop) + 14 + float64(i)*18
		lx := float64(mLeft) + pw + 12
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="3"/>`+"\n",
			lx, ly-4, lx+18, ly-4, color)
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-size="12">%s</text>`+"\n", lx+24, ly, esc(s.Label))
	}
	b.WriteString("</svg>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func esc(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	return r.Replace(s)
}
