package harness

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/viz"
)

// This file runs the study's backend dimension: the backend-capable
// geometry kernels (contour, threshold) are priced under both the
// traditional formulation and the data-parallel-primitive formulation
// (Bethel et al., arXiv 2010.02361), and the power model classifies
// each formulation independently — asking whether DPP changes an
// algorithm's power-opportunity vs power-sensitive class. The kernel is
// the same under both, so each cell runs once and carries both prices
// (AlgoRun.DPP).

// backendNames are the algorithms whose runs carry a DPP price, in the
// order BackendCompare pairs them.
var backendNames = []string{"Contour", "Threshold"}

// dppKey is the cell store's slot for the DPP price of the runKey cell
// BackendCompare paired it with: what the report renders as pairs.
type dppKey runKey

// BackendPair couples the two formulations' runs of one algorithm at
// one size.
type BackendPair struct {
	Name      string
	Trad, DPP *AlgoRun
}

// ClassChanged reports whether the two formulations land in different
// power classes.
func (p BackendPair) ClassChanged() bool {
	return p.Trad.Class != p.DPP.Class
}

// BackendCompare pairs the run of each backend-capable algorithm at one
// size (executed, or fetched from the cell store like every sweep cell)
// with that run's DPP price, and returns one pair per algorithm. Nothing
// executes for the DPP half. An algorithm with a failed cell is skipped;
// the error return is non-nil only when nothing ran.
func (c *Config) BackendCompare(size int) ([]BackendPair, error) {
	var fs []viz.Filter
	for _, f := range c.Filters() {
		if slices.Contains(backendNames, f.Name()) {
			fs = append(fs, f)
		}
	}
	return partial(len(fs), func(i int) (BackendPair, error) {
		tr, err := c.Run(fs[i], size)
		if err != nil {
			return BackendPair{}, err
		}
		c.run.cells[dppKey{tr.Name, size}] = tr.DPP
		return BackendPair{Name: tr.Name, Trad: tr, DPP: tr.DPP}, nil
	})
}

// cachedBackendPairs collects every pair BackendCompare made, ordered by
// name then size — what the report renders without re-executing
// anything.
func (c *Config) cachedBackendPairs() []BackendPair {
	var out []BackendPair
	for key, v := range c.run.cells {
		if k, ok := key.(dppKey); ok {
			out = append(out, BackendPair{Name: k.name, Trad: c.run.cells[runKey(k)].(*AlgoRun), DPP: v.(*AlgoRun)})
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
			d := r.Demand
			fmt.Fprintf(&b, "%-22s %-8s %10.1f %8.2f %10.3f %9d %14s  %s\n",
				fmt.Sprintf("%s %d^3", r.Name, r.Size), r.Backend, d.PowerWatts, d.IPC,
				d.LLCMissRate, r.Profile.Launches, capLabel(r.SlowT, "W"), r.Class)
		}
	}
	for _, p := range pairs {
		if p.ClassChanged() {
			fmt.Fprintf(&b, "%s: DPP CHANGES the class (%s -> %s)\n",
				p.Name, p.Trad.Class, p.DPP.Class)
		} else {
			fmt.Fprintf(&b, "%s: DPP keeps the class (%s)\n", p.Name, p.Trad.Class)
		}
	}
	return b.String()
}
