// Package metrics implements the derived quantities of the paper's
// Section V: the power/time/frequency ratios used throughout the result
// tables (Pratio, Tratio, Fratio), the 10%-slowdown highlighting rule of
// Tables I–III, the power-opportunity / power-sensitive classification of
// Section VI-B that rule implies, and the Moreland–Oldfield rate (elements
// per second) used instead of speedup to compare cell-centered algorithms
// (Fig. 3).
package metrics

import (
	"sort"

	"repro/internal/cpu"
)

// Ratios are the paper's three comparison ratios against the default-power
// (TDP) run. Pratio and Fratio put the default value in the numerator and
// Tratio puts it in the denominator, so all ratios are >= 1 when capping
// costs performance (Section V-A). Eratio is the energy side of that
// tradeoff.
type Ratios struct {
	// Pratio = P_default / P_reduced (ratio of power caps).
	Pratio float64
	// Tratio = T_reduced / T_default (slowdown).
	Tratio float64
	// Fratio = F_default / F_reduced (frequency reduction).
	Fratio float64
	// Eratio = E_reduced / E_default (energy to solution; below 1 the
	// cap saves energy).
	Eratio float64
}

// Compute derives the ratios of r against the default-cap baseline.
func Compute(base, r cpu.CapResult) Ratios {
	out := Ratios{}
	if r.CapWatts > 0 {
		out.Pratio = base.CapWatts / r.CapWatts
	}
	if base.TimeSec > 0 {
		out.Tratio = r.TimeSec / base.TimeSec
	}
	if r.FreqGHz > 0 {
		out.Fratio = base.FreqGHz / r.FreqGHz
	}
	if base.EnergyJ > 0 {
		out.Eratio = r.EnergyJ / base.EnergyJ
	}
	return out
}

// SlowdownThreshold is the paper's red-highlight rule: the first cap at
// which execution time (or frequency) degrades by 10%.
const SlowdownThreshold = 1.10

// FirstCapOver is the highlight rule itself: the highest of caps at
// which ratio(i) meets the threshold, or 0 if none does. baseCap never
// matches, even when it appears in caps. The scan orders the caps
// highest-first internally, so callers may pass them in any order.
func FirstCapOver(caps []float64, baseCap float64, ratio func(i int) float64) float64 {
	order := make([]int, len(caps))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return caps[order[a]] > caps[order[b]] })
	for _, i := range order {
		if caps[i] != baseCap && ratio(i) >= SlowdownThreshold {
			return caps[i]
		}
	}
	return 0
}

// FirstSlowdownCap returns the highest cap whose Tratio meets the
// threshold, or 0 if none does. base is the default-cap run.
func FirstSlowdownCap(base cpu.CapResult, byCap []cpu.CapResult) float64 {
	caps := make([]float64, len(byCap))
	for i, r := range byCap {
		caps[i] = r.CapWatts
	}
	return FirstCapOver(caps, base.CapWatts, func(i int) float64 { return Compute(base, byCap[i]).Tratio })
}

// Class is the paper's two-way classification of visualization
// algorithms under power caps.
type Class int

const (
	// PowerOpportunity algorithms are data-bound: capping them deeply
	// costs little time, so their power can be given away.
	PowerOpportunity Class = iota
	// PowerSensitive algorithms are compute-bound: their runtime
	// degrades roughly with the cap.
	PowerSensitive
)

// String returns the paper's name for the class.
func (c Class) String() string {
	if c == PowerSensitive {
		return "power sensitive"
	}
	return "power opportunity"
}

// SensitiveCapWatts is the classification boundary: the paper's sensitive
// algorithms (volume rendering, particle advection) first slow down 10%
// at 70–80 W, while the opportunity class holds until Pratio >= 2
// (<= 60 W).
const SensitiveCapWatts = 70

// Classify applies the Section VI-B rule to the first cap of a run's cap
// sweep with a 10% slowdown (FirstSlowdownCap, 0 for none): an algorithm
// that slows that much at SensitiveCapWatts or above is power sensitive;
// otherwise it offers power opportunity.
func Classify(firstSlowdownCap float64) Class {
	if firstSlowdownCap >= SensitiveCapWatts {
		return PowerSensitive
	}
	return PowerOpportunity
}

// Rate is the Moreland–Oldfield throughput metric n / T(n,p): data-set
// elements processed per second. Higher is more efficient; unlike
// speedup it needs no serial baseline (Section V-C).
func Rate(elements int64, timeSec float64) float64 {
	if timeSec <= 0 {
		return 0
	}
	return float64(elements) / timeSec
}
