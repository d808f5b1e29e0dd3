package study

import (
	"fmt"
	"strings"

	"repro/internal/ops"
)

// The backend dimension: contour and threshold are priced under the
// traditional and the data-parallel-primitive formulation (Bethel et
// al., arXiv 2010.02361), each classified on its own — does DPP change
// an algorithm's class? One measured cell carries both profiles, so the
// DPP formulation is a second price of it, not a second cell.

// BackendPair is one measured run priced under both formulations.
type BackendPair struct {
	// Trad is the run, priced under the traditional formulation.
	Trad *Run
	// DPP is the run's DPP profile priced on the same processor and caps.
	DPP Priced
}

// ClassChanged reports whether the two formulations land in different
// power classes.
func (p BackendPair) ClassChanged() bool {
	return p.Trad.Class != p.DPP.Class
}

// BackendPairs pairs every run that carries a DPP profile with that
// profile priced under caps, in the runs' order.
func BackendPairs(runs []*Run, caps []float64) []BackendPair {
	var pairs []BackendPair
	for _, r := range runs {
		if r.DPP != (ops.Profile{}) {
			pairs = append(pairs, BackendPair{Trad: r, DPP: price(Processor(), caps, r.DPP)})
		}
	}
	return pairs
}

// BackendTable renders the per-backend classification comparison: one
// row per (algorithm, formulation) with the demand metrics and power
// class, and a verdict line per algorithm stating whether the DPP
// formulation changed its class.
func BackendTable(pairs []BackendPair) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %-8s %10s %8s %10s %9s %14s  %s\n",
		"Algorithm", "Backend", "Demand(W)", "IPC", "LLC miss", "Launches", "1st 10% slow", "Class")
	row := func(r *Run, backend string, pr Priced, launches uint64) {
		d := pr.Demand
		fmt.Fprintf(&b, "%-22s %-8s %10.1f %8.2f %10.3f %9d %14s  %s\n",
			fmt.Sprintf("%s %d^3", r.Name, r.Size), backend, d.PowerWatts, d.IPC,
			d.LLCMissRate, launches, CapLabel(pr.SlowT, "W"), pr.Class)
	}
	for _, p := range pairs {
		row(p.Trad, "trad", p.Trad.Priced, p.Trad.Profile.Launches)
		row(p.Trad, "dpp", p.DPP, p.Trad.DPP.Launches)
	}
	for _, p := range pairs {
		if p.ClassChanged() {
			fmt.Fprintf(&b, "%s: DPP CHANGES the class (%s -> %s)\n",
				p.Trad.Name, p.Trad.Class, p.DPP.Class)
		} else {
			fmt.Fprintf(&b, "%s: DPP keeps the class (%s)\n", p.Trad.Name, p.Trad.Class)
		}
	}
	return b.String()
}
