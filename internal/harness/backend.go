package harness

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/viz"
	"repro/internal/viz/contour"
	"repro/internal/viz/threshold"
)

// This file runs the study's backend dimension: the backend-capable
// geometry kernels (contour, threshold) execute under both the
// traditional scratch-mesh formulation and the data-parallel-primitive
// formulation (Bethel et al., arXiv 2010.02361), and the power model
// classifies each formulation independently — asking whether DPP
// changes an algorithm's power-opportunity vs power-sensitive class.

// filterBackend returns a filter's formulation; filters without a
// backend choice are Traditional.
func filterBackend(f viz.Filter) viz.Backend {
	if bp, ok := f.(viz.BackendProvider); ok {
		return bp.Backend()
	}
	return viz.Traditional
}

// BackendFilters returns the backend-capable algorithms configured for
// one formulation.
func (c *Config) BackendFilters(b viz.Backend) []viz.Filter {
	c.Defaults()
	return []viz.Filter{
		contour.New(contour.Options{Field: "energy", NumIsovalues: c.Isovalues, Backend: b}),
		threshold.New(threshold.Options{Field: "energy", Backend: b}),
	}
}

// BackendPair couples the two formulations' runs of one algorithm at
// one size.
type BackendPair struct {
	Name      string
	Trad, DPP *AlgoRun
}

// ClassChanged reports whether the two formulations land in different
// power classes.
func (p BackendPair) ClassChanged() bool {
	return Classify(p.Trad) != Classify(p.DPP)
}

// BackendCompare executes the backend-capable algorithms at one size
// under both formulations (cached per backend like every sweep cell)
// and returns one pair per algorithm. An algorithm with a failed cell is
// skipped; the error return is non-nil only when nothing ran.
func (c *Config) BackendCompare(size int) ([]BackendPair, error) {
	c.Defaults()
	trad, dpp := c.BackendFilters(viz.Traditional), c.BackendFilters(viz.DPP)
	return partial(len(trad), func(i int) (BackendPair, error) {
		p := BackendPair{Name: trad[i].Name()}
		var err error
		if p.Trad, err = c.Run(trad[i], size); err == nil {
			p.DPP, err = c.Run(dpp[i], size)
		}
		return p, err
	})
}

// cachedBackendPairs collects every (trad, dpp) run pair already in the
// cell store, ordered by name then size — what the report renders
// without re-executing anything.
func (c *Config) cachedBackendPairs() []BackendPair {
	var out []BackendPair
	for key, v := range c.run.cells {
		k, ok := key.(runKey)
		if !ok || k.backend != viz.DPP {
			continue
		}
		k.backend = viz.Traditional
		if tr, ok := c.run.cells[k]; ok {
			out = append(out, BackendPair{Name: k.name, Trad: tr.(*AlgoRun), DPP: v.(*AlgoRun)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].DPP.Size < out[j].DPP.Size
	})
	return out
}

// BackendTable renders the per-backend classification comparison: one
// row per (algorithm, formulation) with the demand metrics and power
// class, and a verdict line per algorithm stating whether the DPP
// formulation changed its class.
func BackendTable(pairs []BackendPair) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %-8s %10s %8s %10s %9s %14s  %s\n",
		"Algorithm", "Backend", "Demand(W)", "IPC", "LLC miss", "Launches", "1st 10% slow", "Class")
	for _, p := range pairs {
		for _, r := range []*AlgoRun{p.Trad, p.DPP} {
			d := r.Exec.Demand()
			class, slowStr := Classify(r), FirstSlowdownString(r)
			fmt.Fprintf(&b, "%-22s %-8s %10.1f %8.2f %10.3f %9d %14s  %s\n",
				fmt.Sprintf("%s %d^3", r.Name, r.Size), r.Backend, d.PowerWatts, d.IPC,
				d.LLCMissRate, r.Profile.Launches, slowStr, class)
		}
	}
	for _, p := range pairs {
		if p.ClassChanged() {
			fmt.Fprintf(&b, "%s: DPP CHANGES the class (%s -> %s)\n",
				p.Name, Classify(p.Trad), Classify(p.DPP))
		} else {
			fmt.Fprintf(&b, "%s: DPP keeps the class (%s)\n", p.Name, Classify(p.Trad))
		}
	}
	return b.String()
}

// Classify returns the paper's Section VI-B class of a run, as
// core.Classify names it.
func Classify(run *AlgoRun) string {
	return core.Classify(run.Base, run.ByCap).String()
}

// FirstSlowdownString formats the first >=10%-slowdown cap, "none" when
// no cap slows the run.
func FirstSlowdownString(run *AlgoRun) string {
	if s := metrics.FirstSlowdownCap(run.Base, run.ByCap); s > 0 {
		return fmt.Sprintf("%.0fW", s)
	}
	return "none"
}
