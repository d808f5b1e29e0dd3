// Package core is the top of the reproduction stack: the in situ
// pipeline that tightly couples the CloverLeaf-like simulation with the
// visualization filters (the Ascent role in the paper) and the runtime
// power allocator the paper motivates — a component that splits a node
// power budget between a simulation and a visualization running
// concurrently so that overall performance is maximized.
package core

import (
	"fmt"
	"math"

	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/ops"
	"repro/internal/par"
	"repro/internal/perfctr"
	"repro/internal/rapl"
	"repro/internal/sim/clover"
	"repro/internal/viz"
)

// Pipeline is a tightly-coupled in situ loop: the simulation and the
// visualization alternate on the same resources (Section IV-A), with
// both sides instrumented.
type Pipeline struct {
	Sim           *clover.Sim
	Filters       []viz.Filter
	StepsPerCycle int
	Pool          *par.Pool
	Spec          cpu.Spec
	// Tracer, when non-nil, records one span per pipeline stage on the
	// pipeline track: "simulate" (with one "sim.step" child per hydro
	// step), "export" around the grid hand-off, one span per filter
	// named as the paper names the algorithm, and "analyze" around the
	// processor-model evaluation. Attach the same tracer to Pool (via
	// Instrument) and the loop-launch spans nest under the stages.
	Tracer *obs.Tracer
	cycle  int
}

// NewPipeline couples a simulation with filters. steps is the number of
// hydro steps between visualization cycles.
func NewPipeline(sim *clover.Sim, filters []viz.Filter, steps int, pool *par.Pool, spec cpu.Spec) (*Pipeline, error) {
	if sim == nil {
		return nil, fmt.Errorf("core: nil simulation")
	}
	if len(filters) == 0 {
		return nil, fmt.Errorf("core: no filters")
	}
	if steps <= 0 {
		steps = 10
	}
	if pool == nil {
		pool = par.Default()
	}
	if spec.Cores == 0 {
		spec = cpu.BroadwellEP()
	}
	return &Pipeline{Sim: sim, Filters: filters, StepsPerCycle: steps, Pool: pool, Spec: spec}, nil
}

// CycleResult summarizes one simulate→visualize cycle: the instrumented
// profiles and their processor-model analyses for each phase.
type CycleResult struct {
	Cycle      int
	SimProfile ops.Profile
	VizProfile ops.Profile
	SimExec    cpu.Execution
	VizExec    cpu.Execution
}

// PhaseResult is one instrumented phase of an in situ cycle: the drained
// operation profile and its processor-model analysis. The phase methods
// exist so a runtime power governor can interleave cap decisions with
// the real pipeline at phase granularity instead of wrapping whole
// cycles.
type PhaseResult struct {
	Profile ops.Profile
	Exec    cpu.Execution
}

// Simulate runs the simulation half of one cycle: StepsPerCycle hydro
// steps under the "simulate" stage span, analyzed on the processor
// model. Pair every Simulate with a Visualize — the filters consume the
// grid state this call advances.
func (p *Pipeline) Simulate() (PhaseResult, error) {
	tr := p.Tracer
	var profile ops.Profile
	simStart := tr.Begin()
	for i := 0; i < p.StepsPerCycle; i++ {
		s := tr.Begin()
		p.Sim.Step(p.Pool, &profile)
		tr.End(obs.Pipeline, "sim.step", s)
	}
	tr.End(obs.Pipeline, "simulate", simStart)
	anStart := tr.Begin()
	exec := cpu.Analyze(p.Spec, profile, 0)
	tr.End(obs.Pipeline, "analyze", anStart)
	return PhaseResult{Profile: profile, Exec: exec}, nil
}

// Visualize runs the visualization half of one cycle: export the grid
// and run every filter on it, analyzed on the processor model.
func (p *Pipeline) Visualize() (PhaseResult, error) {
	tr := p.Tracer
	expStart := tr.Begin()
	g, err := p.Sim.Grid()
	tr.End(obs.Pipeline, "export", expStart)
	if err != nil {
		return PhaseResult{}, err
	}
	ex := viz.NewExec(p.Pool)
	var profile ops.Profile
	for _, f := range p.Filters {
		fStart := tr.Begin()
		res, err := f.Run(g, ex)
		tr.End(obs.Pipeline, f.Name(), fStart)
		if err != nil {
			return PhaseResult{}, fmt.Errorf("core: cycle %d: %w", p.cycle, err)
		}
		// Filters drain their charges into their result profile.
		profile.Add(res.Profile)
	}
	anStart := tr.Begin()
	exec := cpu.Analyze(p.Spec, profile, 0)
	tr.End(obs.Pipeline, "analyze", anStart)
	p.cycle++
	return PhaseResult{Profile: profile, Exec: exec}, nil
}

// RunCycle advances the simulation StepsPerCycle steps, exports the grid,
// and runs every filter on it.
func (p *Pipeline) RunCycle() (*CycleResult, error) {
	sim, err := p.Simulate()
	if err != nil {
		return nil, err
	}
	vis, err := p.Visualize()
	if err != nil {
		return nil, err
	}
	return &CycleResult{
		Cycle:      p.cycle,
		SimProfile: sim.Profile,
		VizProfile: vis.Profile,
		SimExec:    sim.Exec,
		VizExec:    vis.Exec,
	}, nil
}

// Trace runs cycles of the pipeline under the RAPL limit programmed on
// pkg and returns the sampled power/counter timeline (alternating
// simulation and visualization segments) plus the per-segment governed
// results, even-indexed segments being simulation phases.
func (p *Pipeline) Trace(pkg *rapl.Package, cycles int, interval float64) ([]perfctr.Sample, []cpu.CapResult, error) {
	var segs []cpu.Execution
	for i := 0; i < cycles; i++ {
		cr, err := p.RunCycle()
		if err != nil {
			return nil, nil, err
		}
		segs = append(segs, cr.SimExec, cr.VizExec)
	}
	return perfctr.Trace(pkg, segs, interval)
}

// Allocation is the outcome of splitting a node power budget between a
// simulation and a visualization that run concurrently (one per socket,
// as in the paper's future runtime): the chosen per-side caps, the
// resulting cycle time (the slower side), the naive even-split time, and
// the speedup the informed split achieves.
type Allocation struct {
	SimWatts, VizWatts float64
	TimeSec            float64
	NaiveTimeSec       float64
	Speedup            float64
}

// AllocateBudget chooses the split of budget watts between the simulation
// and visualization executions that minimizes the concurrent cycle time
// max(Tsim(Wsim), Tviz(Wviz)), searching the RAPL-enforceable range in
// 1 W steps. This is the paper's "assign power to the nodes (phases)
// where it is needed most" applied to the sim/viz pair: a
// power-opportunity visualization is starved to its floor with almost no
// cost, freeing the rest of the budget for the simulation.
func AllocateBudget(sim, vis cpu.Execution, budget float64) (Allocation, error) {
	minW := sim.Spec.MinCapWatts
	if budget < 2*minW {
		return Allocation{}, fmt.Errorf("core: budget %.0f W below twice the %.0f W cap floor", budget, minW)
	}
	best := Allocation{TimeSec: -1}
	half := budget / 2
	for w := minW; w <= budget-minW+1e-9; w++ {
		ts := sim.UnderCap(w).TimeSec
		tv := vis.UnderCap(budget - w).TimeSec
		t := ts
		if tv > t {
			t = tv
		}
		// Strictly better wins; among (numerically) tied splits, prefer
		// the one closest to even — the governed frequency ladder makes
		// the objective flat wherever neither side is throttled.
		better := best.TimeSec < 0 || t < best.TimeSec*(1-1e-12)-1e-15
		tied := best.TimeSec >= 0 && !better && t <= best.TimeSec*(1+1e-12)+1e-15
		if better || (tied && math.Abs(w-half) < math.Abs(best.SimWatts-half)) {
			best.TimeSec = t
			best.SimWatts = w
			best.VizWatts = budget - w
		}
	}
	tn := sim.UnderCap(half).TimeSec
	if tv := vis.UnderCap(half).TimeSec; tv > tn {
		tn = tv
	}
	best.NaiveTimeSec = tn
	if best.TimeSec > 0 {
		best.Speedup = tn / best.TimeSec
	}
	return best, nil
}
