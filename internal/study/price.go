package study

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/metrics"
	"repro/internal/ops"
)

// Priced is every modeled number the study prints for one measured cell
// on one processor model. The tables, figures, claims, report, /sweep and
// the arch comparison read it; none of them re-derives a ratio, a
// slowdown cap or a class.
type Priced struct {
	// Exec is the processor-model analysis of the cell's profile.
	Exec cpu.Execution
	// Demand is the run unconstrained (cpu.Execution.Demand).
	Demand cpu.CapResult
	// ByCap is the result under each cap, in the caps' order; ByCap[0]
	// is the base (default-cap) run the ratios are taken against.
	ByCap []cpu.CapResult
	// Ratios[i] is ByCap[i] against ByCap[0].
	Ratios []metrics.Ratios
	// SlowT and SlowF are the highest caps whose Tratio and Fratio reach
	// the paper's 10% highlight (metrics.SlowdownThreshold), 0 when no
	// cap does.
	SlowT, SlowF float64
	// Class is the Section VI-B class SlowT implies.
	Class metrics.Class
}

// price is the one place a measured profile becomes modeled numbers: the
// profile analyzed on spec and evaluated under each of caps, caps[0]
// being the base. Price prices every cell on the study's processor, a
// backend pair prices its run's DPP profile, and PriceArchitectures
// prices one cell on each architecture.
func price(spec cpu.Spec, caps []float64, p ops.Profile) Priced {
	exec := cpu.Analyze(spec, p, 0)
	byCap := make([]cpu.CapResult, len(caps))
	for i, w := range caps {
		byCap[i] = exec.UnderCap(w)
	}
	pr := fromSweep(byCap)
	pr.Exec, pr.Demand = exec, exec.Demand()
	return pr
}

// fromSweep derives the ratios, slowdown caps and class of a cap sweep
// from the per-cap results alone; byCap[0] is the base. The highlight
// rule compares enforced caps, so the other results may come in any
// order.
func fromSweep(byCap []cpu.CapResult) Priced {
	base := byCap[0]
	pr := Priced{ByCap: byCap, Ratios: make([]metrics.Ratios, len(byCap))}
	caps := make([]float64, len(byCap))
	for i, r := range byCap {
		pr.Ratios[i] = metrics.Compute(base, r)
		caps[i] = r.CapWatts
	}
	pr.SlowT = metrics.FirstSlowdownCap(base, byCap)
	pr.SlowF = metrics.FirstCapOver(caps, base.CapWatts, func(i int) float64 { return pr.Ratios[i].Fratio })
	pr.Class = metrics.Classify(pr.SlowT)
	return pr
}

// CapLabel formats a slowdown cap as "<watts><unit>", "none" for no cap.
func CapLabel(w float64, unit string) string {
	if w > 0 {
		return fmt.Sprintf("%.0f%s", w, unit)
	}
	return "none"
}
