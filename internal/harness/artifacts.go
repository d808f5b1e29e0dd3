package harness

import (
	"fmt"
	"strings"
)

// Artifact declares one output of the study: a table (Text) or a figure
// (Series). `vizpower <Name>` prints it, `vizpower all` writes its
// Files, report.md indexes the figures, and usage lists every entry.
type Artifact struct {
	// Name is the command that prints the artifact and the stem of a
	// figure's files.
	Name string
	// File is the file a table is written to; a figure writes Name.csv
	// and Name.svg.
	File string
	// Desc is the one-line description in usage and report.md.
	Desc string
	// Title and YLabel head a figure's text and SVG renderings.
	Title, YLabel string
	// OnRequest marks an artifact `all` writes only when asked (-govern).
	OnRequest bool

	// Text produces a table, Series a figure; exactly one is set.
	Text   func(*Config) (string, error)
	Series func(*Config) ([]Series, error)
}

// GovernCycles is the cycle count of the study's governor sweep: the
// closed loop needs a few feedback rounds to settle, and fewer cycles
// mostly measure its discovery transient.
const GovernCycles = 6

// Artifacts is the study's table and figure list, in the order `all`
// writes it (Figure 1's renderings come from RenderFig1).
var Artifacts = []Artifact{
	table("table1", "table1.txt", "Phase 1 — contour slowdown vs. power cap (Table I)", (*Config).Phase1, Table1),
	table("table2", "table2.txt", "Phase 2 — all algorithms at the phase size (Table II)", (*Config).Phase2, Table2),
	table("table3", "table3.txt", "Phase 3 — all algorithms at the largest size (Table III)", (*Config).largestRuns, Table3),
	table("classify", "classification.txt", "demand power / IPC / miss rate / class per algorithm", (*Config).Phase2,
		func(runs []*AlgoRun, _ []float64) string { return DemandTable(runs) }),
	table("energy", "energy.txt", "energy to solution relative to the TDP run, per algorithm and cap", (*Config).Phase2, EnergyTable),
	table("backends", "backends.txt", "contour and threshold under the traditional and DPP formulations, classified per backend",
		func(c *Config) ([]BackendPair, error) { return c.BackendCompare(c.PhaseSize) },
		func(pairs []BackendPair, _ []float64) string { return BackendTable(pairs) }),
	{Name: "govern", File: "govern.txt", Desc: "closed-loop governor vs. static phase plan vs. uniform cap", OnRequest: true,
		Text: func(c *Config) (string, error) {
			res, err := c.GovernorCompare(c.PhaseSize, nil, GovernCycles)
			if err != nil {
				return "", err
			}
			return GovernTable(res), nil
		}},
	figure("fig2a", "effective frequency vs. cap",
		"Figure 2a — effective frequency (GHz) vs. power cap", "Effective Frequency (GHz)", (*Config).Phase2, Fig2a),
	figure("fig2b", "IPC vs. cap", "Figure 2b — IPC vs. power cap", "IPC", (*Config).Phase2, Fig2b),
	figure("fig2c", "LLC miss rate vs. cap",
		"Figure 2c — LLC miss rate vs. power cap", "Last Level Cache Miss Rate", (*Config).Phase2, Fig2c),
	figure("fig3", "elements/s, cell-centered algorithms",
		"Figure 3 — elements (M)/sec, cell-centered algorithms", "Elements (M)/sec", (*Config).Phase2, Fig3),
	ipcBySizeFigure("fig4", "Slice", "slice"),
	ipcBySizeFigure("fig5", "Volume Rendering", "volume rendering"),
	ipcBySizeFigure("fig6", "Particle Advection", "particle advection"),
}

// table declares a text artifact: format applied to what runs gathers.
func table[R any](name, file, desc string, runs func(*Config) (R, error), format func(R, []float64) string) Artifact {
	return Artifact{Name: name, File: file, Desc: desc, Text: func(c *Config) (string, error) {
		r, err := runs(c)
		if err != nil {
			return "", err
		}
		return format(r, c.Caps), nil
	}}
}

// figure declares a figure artifact: plot applied to what runs gathers.
func figure[R any](name, desc, title, ylabel string, runs func(*Config) (R, error), plot func(R, []float64) []Series) Artifact {
	return Artifact{Name: name, Desc: desc, Title: title, YLabel: ylabel, Series: func(c *Config) ([]Series, error) {
		r, err := runs(c)
		if err != nil {
			return nil, err
		}
		return plot(r, c.Caps), nil
	}}
}

// ipcBySizeFigure declares one of Figures 4–6: one algorithm's IPC
// versus cap with a series per data-set size.
func ipcBySizeFigure(name, alg, lower string) Artifact {
	return Artifact{
		Name:   name,
		Desc:   lower + " IPC by data-set size",
		Title:  fmt.Sprintf("Figure %s — %s IPC vs. power cap by data-set size", strings.TrimPrefix(name, "fig"), alg),
		YLabel: "IPC",
		Series: func(c *Config) ([]Series, error) {
			bySize, err := c.RunsBySize(alg)
			if err != nil {
				return nil, err
			}
			return FigIPCBySize(bySize, c.SortedSizes(), c.Caps), nil
		},
	}
}

// largestRuns runs all eight algorithms at the largest configured size.
func (c *Config) largestRuns() ([]*AlgoRun, error) {
	sizes := c.SortedSizes()
	return c.RunAll(sizes[len(sizes)-1])
}

// Output is one rendered file of an artifact.
type Output struct{ File, Content string }

// Files lists the file names Render produces.
func (a Artifact) Files() []string {
	if a.Series == nil {
		return []string{a.File}
	}
	return []string{a.Name + ".csv", a.Name + ".svg"}
}

// Render produces the artifact's files as `vizpower all` writes them: a
// table's text, or a figure's CSV and SVG.
func (a Artifact) Render(c *Config) ([]Output, error) {
	if a.Series == nil {
		text, err := a.Text(c)
		if err != nil {
			return nil, err
		}
		return []Output{{a.File, text}}, nil
	}
	series, err := a.Series(c)
	if err != nil {
		return nil, err
	}
	var svg strings.Builder
	if err := WriteSVGFigure(&svg, a.Title, a.YLabel, series); err != nil {
		return nil, err
	}
	files := a.Files()
	return []Output{{files[0], SeriesCSV("cap_watts", series)}, {files[1], svg.String()}}, nil
}
