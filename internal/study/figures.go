package study

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/metrics"
	"repro/internal/plot"
)

// Series is one labeled curve of a figure: Y versus X.
type Series = plot.Series

// Fig2a returns effective frequency (GHz) versus power cap for every
// algorithm — the paper's Figure 2a.
func Fig2a(runs []*Run, caps []float64) []Series {
	return capSeries(runs, caps, func(r *Run, i int) float64 { return r.ByCap[i].FreqGHz })
}

// Fig2b returns IPC versus power cap — Figure 2b.
func Fig2b(runs []*Run, caps []float64) []Series {
	return capSeries(runs, caps, func(r *Run, i int) float64 { return r.ByCap[i].IPC })
}

// Fig2c returns last-level-cache miss rate versus power cap — Figure 2c.
func Fig2c(runs []*Run, caps []float64) []Series {
	return capSeries(runs, caps, func(r *Run, i int) float64 { return r.ByCap[i].LLCMissRate })
}

// cellCentered lists the algorithms the Fig. 3 rate metric applies to
// (those that iterate over each cell of the input).
var cellCentered = []string{"Contour", "Isovolume", "Slice", "Spherical Clip", "Threshold"}

// Fig3 returns elements processed per second (in millions) versus power
// cap for the cell-centered algorithms — Figure 3.
func Fig3(runs []*Run, caps []float64) []Series {
	var subset []*Run
	for _, r := range runs {
		if slices.Contains(cellCentered, r.Name) {
			subset = append(subset, r)
		}
	}
	return capSeries(subset, caps, func(r *Run, i int) float64 {
		return metrics.Rate(r.Elements, r.ByCap[i].TimeSec) / 1e6
	})
}

// FigIPCBySize returns IPC versus power cap with one series per data-set
// size for a single algorithm — the format of Figures 4 (slice), 5
// (volume rendering), and 6 (particle advection).
func FigIPCBySize(bySize map[int]*Run, sizes []int, caps []float64) []Series {
	var out []Series
	for _, size := range sizes {
		run, ok := bySize[size]
		if !ok {
			continue
		}
		s := Series{Label: fmt.Sprintf("%d", size)}
		for i, capW := range caps {
			s.X = append(s.X, capW)
			s.Y = append(s.Y, run.ByCap[i].IPC)
		}
		out = append(out, s)
	}
	return out
}

func capSeries(runs []*Run, caps []float64, y func(*Run, int) float64) []Series {
	var out []Series
	for _, run := range runs {
		s := Series{Label: run.Name}
		for i, capW := range caps {
			s.X = append(s.X, capW)
			s.Y = append(s.Y, y(run, i))
		}
		out = append(out, s)
	}
	return out
}

// FormatSeries renders series as an aligned text table: the shared X
// column first (labeled xlabel), one Y column per series.
func FormatSeries(title, xlabel string, series []Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	if len(series) == 0 {
		b.WriteString("(no data)\n")
		return b.String()
	}
	fmt.Fprintf(&b, "%-12s", xlabel)
	for _, s := range series {
		fmt.Fprintf(&b, " %18s", s.Label)
	}
	b.WriteByte('\n')
	for i := range series[0].X {
		fmt.Fprintf(&b, "%-12.0f", series[0].X[i])
		for _, s := range series {
			fmt.Fprintf(&b, " %18.4f", s.Y[i])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// WriteSVGFigure renders the series as an SVG line chart in the style of
// the paper's figures (power cap on the x axis).
func WriteSVGFigure(w io.Writer, title, ylabel string, series []Series) error {
	return plot.WriteSVG(w, plot.Options{
		Title:  title,
		XLabel: "Processor Power Cap (W)",
		YLabel: ylabel,
	}, series)
}

// SeriesCSV renders series as CSV with the shared X column first.
func SeriesCSV(xlabel string, series []Series) string {
	var b strings.Builder
	b.WriteString(xlabel)
	for _, s := range series {
		fmt.Fprintf(&b, ",%s", strings.ReplaceAll(s.Label, ",", " "))
	}
	b.WriteByte('\n')
	if len(series) == 0 {
		return b.String()
	}
	for i := range series[0].X {
		fmt.Fprintf(&b, "%g", series[0].X[i])
		for _, s := range series {
			fmt.Fprintf(&b, ",%g", s.Y[i])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
