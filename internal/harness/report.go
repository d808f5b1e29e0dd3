package harness

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/metrics"
	"repro/internal/viz"
)

// WriteReport assembles a self-contained markdown report of one full
// campaign: the configuration, the classification, all three tables, the
// claim checks, and pointers to the figure artifacts. The `all` command
// writes it as report.md next to the CSV/SVG/PNG outputs.
func (c *Config) WriteReport(w io.Writer, runs2, runs3 []*AlgoRun, claims []Claim) error {
	c.Defaults()
	var b strings.Builder
	b.WriteString("# vizpower campaign report\n\n")
	b.WriteString("Reproduction of Labasan et al., *Power and Performance Tradeoffs for\n")
	b.WriteString("Visualization Algorithms* (IPDPS 2019), on the simulated-Broadwell stack.\n\n")

	b.WriteString("## Configuration\n\n")
	fmt.Fprintf(&b, "- processor model: %s\n", c.Spec.Name)
	fmt.Fprintf(&b, "- power caps: %.0f W down to %.0f W in %d steps\n",
		c.Caps[0], c.Caps[len(c.Caps)-1], len(c.Caps))
	fmt.Fprintf(&b, "- data-set sizes: %v (cells per axis), phase size %d\n", c.SortedSizes(), c.PhaseSize)
	fmt.Fprintf(&b, "- workloads: %d isovalues, %d images at %d x %d, %d particles x %d steps\n",
		c.Isovalues, c.Images, c.ImageSize, c.ImageSize, c.Particles, c.ParticleSteps)
	fmt.Fprintf(&b, "- study matrix: %d configurations\n\n", c.TotalConfigurations())

	if fs := c.Failures(); len(fs) > 0 {
		b.WriteString("## Failed configurations\n\n")
		b.WriteString("The sweep is partial-on-failure: the cells below errored out (after\n")
		b.WriteString("transient retries) and every other cell still ran.\n\n```\n")
		b.WriteString(FailureReport(fs))
		b.WriteString("```\n\n")
	}

	b.WriteString("## Classification (Section VI-B)\n\n```\n")
	b.WriteString(DemandTable(runs2))
	b.WriteString("```\n\n")

	b.WriteString("## Claim checks\n\n```\n")
	b.WriteString(FormatClaims(claims))
	b.WriteString("```\n\n")

	if len(runs2) > 0 {
		b.WriteString("## Table I (Phase 1)\n\n```\n")
		for _, r := range runs2 {
			if r.Name == "Contour" {
				b.WriteString(Table1(r, c.Caps))
				break
			}
		}
		b.WriteString("```\n\n")
	}
	b.WriteString("## Table II (Phase 2)\n\n```\n")
	b.WriteString(Table2(runs2, c.Caps))
	b.WriteString("```\n\n")
	if len(runs3) > 0 {
		b.WriteString("## Table III (Phase 3)\n\n```\n")
		b.WriteString(Table3(runs3, c.Caps))
		b.WriteString("```\n\n")
	}

	b.WriteString("## Energy to solution\n\n```\n")
	b.WriteString(EnergyTable(runs2, c.Caps))
	b.WriteString("```\n\n")

	b.WriteString("## Figures\n\n")
	b.WriteString("| figure | content | files |\n|---|---|---|\n")
	b.WriteString("| fig1 | renderings of the eight algorithms | fig1/*.png |\n")
	for _, a := range Artifacts {
		if a.Series != nil {
			fmt.Fprintf(&b, "| %s | %s | %s |\n", a.Name, a.Desc, strings.Join(a.Files(), ", "))
		}
	}
	b.WriteString("\n## Per-algorithm summary (phase size)\n\n")
	b.WriteString("| algorithm | demand (W) | IPC | LLC miss | first 10% slowdown | Tratio @ 40 W | energy @ 40 W |\n")
	b.WriteString("|---|---|---|---|---|---|---|\n")
	for _, r := range runs2 {
		d := r.Exec.Demand()
		s := metrics.FirstSlowdownCap(r.Base, r.ByCap)
		slowStr := "none"
		if s > 0 {
			slowStr = fmt.Sprintf("%.0f W", s)
		}
		last := r.ByCap[len(r.ByCap)-1]
		tr := metrics.Compute(r.Base, last)
		eRatio := 0.0
		if r.Base.EnergyJ > 0 {
			eRatio = last.EnergyJ / r.Base.EnergyJ
		}
		fmt.Fprintf(&b, "| %s | %.1f | %.2f | %.3f | %s | %.2fX | %.2fx |\n",
			r.Name, d.PowerWatts, d.IPC, d.LLCMissRate, slowStr, tr.Tratio, eRatio)
	}
	c.writeBackends(&b)
	c.writeCellCost(&b)
	c.writeAdvectDist(&b)
	c.writeGovern(&b)
	b.WriteString("\nSee EXPERIMENTS.md for the paper-versus-measured discussion.\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// writeBackends appends the DPP-backend comparison section when the
// campaign executed both formulations of the backend-capable kernels
// (see BackendCompare): per-backend demand metrics and power class,
// answering whether the DPP formulation changes the classification.
func (c *Config) writeBackends(b *strings.Builder) {
	pairs := c.cachedBackendPairs()
	if len(pairs) == 0 {
		return
	}
	b.WriteString("\n## DPP backend\n\n")
	b.WriteString("The contour and threshold kernels also ran under the\n")
	b.WriteString("data-parallel-primitive formulation (count/flag -> scan -> emit on\n")
	b.WriteString("internal/dpp; Bethel et al., arXiv 2010.02361), bit-identical in output\n")
	b.WriteString("to the traditional scratch-mesh backend. Each formulation is classified\n")
	b.WriteString("independently:\n\n```\n")
	b.WriteString(BackendTable(pairs))
	b.WriteString("```\n")
}

// writeCellCost appends the measured-cost attribution section: what
// each executed sweep cell actually cost this machine in wall-clock
// seconds (as opposed to the modeled time under a cap), with per-stage
// self-time attribution when the campaign ran under a tracer.
func (c *Config) writeCellCost(b *strings.Builder) {
	var cells []*AlgoRun
	var total float64
	for _, r := range cached[*AlgoRun](c) {
		if r.WallSec > 0 {
			cells = append(cells, r)
			total += r.WallSec
		}
	}
	if len(cells) == 0 {
		return
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].WallSec != cells[j].WallSec {
			return cells[i].WallSec > cells[j].WallSec
		}
		if cells[i].Name != cells[j].Name {
			return cells[i].Name < cells[j].Name
		}
		return cells[i].Size < cells[j].Size
	})
	b.WriteString("\n## Measured cell cost\n\n")
	fmt.Fprintf(b, "Wall-clock cost of the %d executed (algorithm, size) cells, %.2f s\n", len(cells), total)
	b.WriteString("total, most expensive first. Each cell's instrumented run models every\ncap, so this is the real price of the sweep on this machine.\n\n")
	withStages := false
	for _, r := range cells {
		if len(r.Stages) > 0 {
			withStages = true
			break
		}
	}
	if withStages {
		b.WriteString("| cell | wall (s) | % of sweep | top stages (self time) |\n|---|---|---|---|\n")
	} else {
		b.WriteString("| cell | wall (s) | % of sweep |\n|---|---|---|\n")
	}
	for _, r := range cells {
		name := r.Name
		if r.Backend == viz.DPP {
			name += " (dpp)"
		}
		fmt.Fprintf(b, "| %s %d^3 | %.3f | %.1f%% |", name, r.Size, r.WallSec, 100*r.WallSec/total)
		if withStages {
			var parts []string
			for i, st := range r.Stages {
				if i == 3 {
					break
				}
				parts = append(parts, fmt.Sprintf("%s %.1fms", st.Name, float64(st.SelfNs)/1e6))
			}
			fmt.Fprintf(b, " %s |", strings.Join(parts, ", "))
		}
		b.WriteByte('\n')
	}
}
