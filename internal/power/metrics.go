package power

import (
	"repro/internal/obs"
	"repro/internal/telemetry"
)

// Attribute answers "where the joules went" for a governed run with
// per-phase exactness: each PhaseReport carries its measured EnergyJ
// and the trace window [TraceLo, TraceHi) captured around the live
// phase, so the join distributes each phase's joules over that phase's
// span self time and merges the per-phase rows. Joules from phases
// without a trace window (synthetic segments, untraced pipelines) land in
// an "(untraced)" row rather than silently vanishing — the rows always
// sum to the run's measured total.
func (r *Result) Attribute(spans []telemetry.Span) []obs.StageJoules {
	var rows []obs.StageJoules
	var untracedJ float64
	for i := range r.Phases {
		p := &r.Phases[i]
		if p.TraceHi <= p.TraceLo {
			untracedJ += p.EnergyJ
			continue
		}
		window := telemetry.Window(spans, p.TraceLo, p.TraceHi)
		stats := telemetry.Summarize(window)
		if len(stats) == 0 {
			untracedJ += p.EnergyJ
			continue
		}
		rows = obs.MergeAttribution(rows, obs.SplitJoules(stats, p.EnergyJ))
	}
	if untracedJ > 0 {
		rows = obs.MergeAttribution(rows, []obs.StageJoules{{Stage: "(untraced)", Joules: untracedJ}})
	}
	return rows
}
