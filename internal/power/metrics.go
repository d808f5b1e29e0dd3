package power

import "repro/internal/obs"

// Attribute answers "where the joules went" for a governed run with
// per-phase exactness: each PhaseReport carries its measured EnergyJ
// and the stage summary captured around the live phase, so the join
// distributes each phase's joules over that phase's span self time and
// merges the per-phase rows. Joules from phases without a summary
// (synthetic segments, untraced pipelines) land in an "(untraced)" row
// rather than silently vanishing — the rows always sum to the run's
// measured total.
func (r *Result) Attribute() []obs.StageJoules {
	var rows []obs.StageJoules
	var untracedJ float64
	for i := range r.Phases {
		p := &r.Phases[i]
		if len(p.Stages) == 0 {
			untracedJ += p.EnergyJ
			continue
		}
		rows = obs.MergeAttribution(rows, obs.SplitJoules(p.Stages, p.EnergyJ))
	}
	if untracedJ > 0 {
		rows = obs.MergeAttribution(rows, []obs.StageJoules{{Stage: "(untraced)", Joules: untracedJ}})
	}
	return rows
}
