package harness

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/msr"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/rapl"
	"repro/internal/sim/clover"
	"repro/internal/study"
	"repro/internal/viz"
	"repro/internal/viz/volren"
)

// This file runs the closed-loop capping dimension: the telemetry-driven
// closed loop against the study's static alternatives on the same
// recorded work, all as policies of one engine (internal/power) and so
// all measured by the same meter. The sweep records the real pipeline
// once (power.Record) and every budget governs that one recording. That
// is equivalent to a live governed run per budget: the RAPL package is
// modeled and each phase's profile is analyzed uncapped, so no cap can
// change the work, and the closed loop's one live input — the pool-idle
// fraction — is captured before the phase is governed. Three policies
// per budget:
//
//   - closed loop: the recording governed at target = budget; the
//     governor sees only the live counters each phase captured.
//   - static plan: core.PlanPhaseCaps calibrated from the recording's
//     FIRST cycle (the offline planner's model input), its two caps held
//     for every recorded phase.
//   - uniform: the budget held as one cap for every recorded phase.
//
// The headline comparison is time at equal energy: the governor
// re-governs the recording at a target no higher than the static plan's
// achieved average, so its time advantage cannot come from spending
// more power.

// GovernRow is one budget's comparison: what each policy's run through
// the power engine reported.
type GovernRow struct {
	BudgetWatts float64

	// Live is the closed loop governing the sweep's recording at target
	// = budget; its Decisions are the flight recording of every cap
	// decision the governor took.
	Live power.Result
	// Eq is the closed loop re-governing the recording at equal-or-lower
	// energy than the static plan (target = min(budget, static average)).
	Eq power.Result
	// Static is the per-phase plan (SimCapW/VizCapW) held over the
	// recorded segments. StaticErr is set when no feasible plan exists at
	// this budget; Static is then zero.
	Static           power.Result
	SimCapW, VizCapW float64
	StaticErr        error
	// Uniform is the budget held as one cap over the recorded segments.
	Uniform power.Result
}

// EqSpeedupVsStatic is static time over equal-energy governed time.
func (r GovernRow) EqSpeedupVsStatic() float64 {
	if r.Eq.TimeSec <= 0 || r.StaticErr != nil {
		return 0
	}
	return r.Static.TimeSec / r.Eq.TimeSec
}

// GovSpeedupVsUniform is uniform time over the live governed time.
func (r GovernRow) GovSpeedupVsUniform() float64 {
	if r.Live.TimeSec <= 0 {
		return 0
	}
	return r.Uniform.TimeSec / r.Live.TimeSec
}

// GovernResult is the closed-loop sweep at one size.
type GovernResult struct {
	Size   int
	Cycles int
	Rows   []GovernRow
	// ClassDemand is the governor-measured time-weighted demand per
	// phase class from the live runs — what serve admission consumes.
	ClassDemand map[metrics.Class]float64
	// Attribution is the merged "where the joules went" table across
	// the sweep's live governed runs: each run's per-phase trace window
	// joined with its measured energy (power.Result.Attribute), folded
	// by stage name. Joules sum over the runs; span counts and self time
	// are the one recording's.
	Attribution []obs.StageJoules
}

// Decisions returns every budget's live flight recording, in budget
// order, and the total the bounded rings overwrote. Each run's virtual
// clock starts at 0; obs.Decision.TargetWatts says which run a decision
// belongs to.
func (r *GovernResult) Decisions() ([]obs.Decision, int64) {
	var dec []obs.Decision
	var dropped int64
	for _, row := range r.Rows {
		dec = append(dec, row.Live.Decisions...)
		dropped += row.Live.DecisionsDropped
	}
	return dec, dropped
}

// InSitu builds the in situ rig the pipeline commands and the governor
// share: the hydro proxy at size coupled every 10 steps with filters, on
// c's pool and processor model.
func (c *Config) InSitu(size int, filters []viz.Filter) (*core.Pipeline, error) {
	c.Defaults()
	sim, err := clover.New(size, clover.Options{})
	if err != nil {
		return nil, err
	}
	return core.NewPipeline(sim, filters, 10, c.Pool, study.Processor())
}

// governPipeline builds the in situ workload the governed runs use: the
// hydro proxy at the full size coupled with a volume-rendering phase —
// a power-sensitive simulation against the renderer the paper classes
// by, kept light enough that its phase is data-bound on this stack.
func (c *Config) governPipeline(size int) (*core.Pipeline, error) {
	pipe, err := c.InSitu(size, []viz.Filter{
		volren.New(volren.Options{Field: "energy", Images: 10, Width: 64, Height: 64}),
	})
	if err != nil {
		return nil, err
	}
	// The governed runs feed the energy attribution join, which needs
	// pipeline stage spans; an untraced config gets a private tracer
	// (the shared pool stays uninstrumented).
	if pipe.Tracer = c.Tracer; pipe.Tracer == nil {
		pipe.Tracer = obs.NewTracer()
	}
	return pipe, nil
}

// governKey identifies one governor sweep; budgets is the printed budget
// list, so the key stays comparable.
type governKey struct {
	size, cycles int
	budgets      string
}

// GovernorCompare sweeps the closed-loop governor against the static
// phase plan and the uniform cap at one size across the given budgets
// (default 55, 65, 75 W). cycles is the number of simulate+visualize
// cycles the sweep records once and every budget governs; fewer than 2 is
// an error, since the governor needs one cycle of phase memory to act on.
// The sweep is one
// cell, cached per (size, budgets, cycles) and recorded in Failures as
// "Closed-loop governor" when it fails.
func (c *Config) GovernorCompare(size int, budgets []float64, cycles int) (*GovernResult, error) {
	c.Defaults()
	if len(budgets) == 0 {
		budgets = []float64{55, 65, 75}
	}
	if cycles < 2 {
		return nil, fmt.Errorf("governor sweep: %d cycles, need at least 2", cycles)
	}
	return runCell(c, cellID{
		key:   governKey{size, cycles, fmt.Sprint(budgets)},
		name:  "Closed-loop governor",
		size:  size,
		label: fmt.Sprintf("Closed-loop governor, %d^3, %d budgets x %d cycles", size, len(budgets), cycles),
	}, func() (*GovernResult, error) {
		res := &GovernResult{Size: size, Cycles: cycles, ClassDemand: map[metrics.Class]float64{}}
		pipe, err := c.governPipeline(size)
		if err != nil {
			return nil, err
		}
		segs, err := power.Record(pipe, cycles)
		if err != nil {
			return nil, err
		}
		for i, budget := range budgets {
			row, err := c.governBudget(segs, budget)
			if err != nil {
				return nil, fmt.Errorf("at %.0f W: %w", budget, err)
			}
			res.Rows = append(res.Rows, row)
			// The live run's per-stage energy join, exact per phase.
			att := row.Live.Attribute()
			if i > 0 {
				// Every budget governed the same recorded phases: count their spans once.
				for j := range att {
					att[j].Count, att[j].SelfSec = 0, 0
				}
			}
			res.Attribution = obs.MergeAttribution(res.Attribution, att)
			for class, w := range row.Live.ClassDemand() {
				// Keep the highest measured demand per class across budgets
				// — deeper targets under-observe the unthrottled draw.
				if w > res.ClassDemand[class] {
					res.ClassDemand[class] = w
				}
			}
		}
		c.log("govern %d^3: %d budgets x %d cycles compared", size, len(res.Rows), cycles)
		return res, nil
	})
}

// governBudget runs the policies for one budget over the sweep's one
// recording, every one of them through the same power engine: the closed
// loop at target = budget, then the static plan, the uniform cap and the
// warmed equal-energy closed loop.
func (c *Config) governBudget(segs []power.Segment, budget float64) (GovernRow, error) {
	row := GovernRow{BudgetWatts: budget}
	pkg := func() *rapl.Package { return rapl.NewPackage(msr.NewFile(), study.Processor()) }
	opt := power.Options{TargetWatts: budget}
	replay := func(g *power.Governor, err error) (power.Result, error) {
		if err != nil {
			return power.Result{}, err
		}
		return g.RunSegments(segs)
	}

	var err error
	if row.Live, err = replay(power.New(pkg(), opt)); err != nil {
		return row, err
	}

	// Static plan calibrated, as the offline planner would be, from the
	// first recorded cycle only; realized over every recorded phase.
	plan, err := core.PlanPhaseCaps(segs[0].Exec, segs[1].Exec, budget)
	if err != nil {
		row.StaticErr = err
	} else {
		row.SimCapW, row.VizCapW = plan.SimCapWatts, plan.VizCapWatts
		caps := map[string]float64{"simulate": plan.SimCapWatts, "visualize": plan.VizCapWatts}
		if row.Static, err = replay(power.NewTable(pkg(), opt, caps)); err != nil {
			return row, err
		}
	}
	if row.Uniform, err = replay(power.NewTable(pkg(), opt, nil)); err != nil {
		return row, err
	}

	// Equal-energy replay: re-govern the same recorded work at a target
	// no higher than what the static plan actually spent.
	eqTarget := budget
	if row.StaticErr == nil && row.Static.AvgPowerWatts < eqTarget {
		eqTarget = row.Static.AvgPowerWatts
	}
	if eqTarget < study.Processor().MinCapWatts {
		eqTarget = study.Processor().MinCapWatts
	}
	g2, err := power.New(pkg(), power.Options{TargetWatts: eqTarget})
	if err != nil {
		return row, err
	}
	// The static plan profiles from recorded segments; the closed loop
	// gets the equivalent head start — its own learned phase memory.
	g2.Warm(&row.Live)
	row.Eq, err = g2.RunSegments(segs)
	return row, err
}

// cachedGoverns returns the govern sweeps already run, ascending by size,
// then cycles, then budget count.
func (c *Config) cachedGoverns() []*GovernResult {
	out := cached[*GovernResult](c)
	slices.SortFunc(out, func(a, b *GovernResult) int {
		return cmp.Or(cmp.Compare(a.Size, b.Size), cmp.Compare(a.Cycles, b.Cycles), cmp.Compare(len(a.Rows), len(b.Rows)))
	})
	return out
}

// GovernTable renders one size's three-policy comparison.
func GovernTable(res *GovernResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "closed-loop governor vs static plan vs uniform cap, %d^3, %d cycles\n",
		res.Size, res.Cycles)
	fmt.Fprintf(&b, "%-8s %14s %8s %14s %8s %16s %8s %12s %8s\n",
		"Budget", "closed-loop T", "avg W", "equal-energy T", "avg W", "static T (caps)", "avg W", "uniform T", "avg W")
	for _, r := range res.Rows {
		static := "infeasible"
		staticAvg := "-"
		if r.StaticErr == nil {
			static = fmt.Sprintf("%.4fs (%.0f/%.0f)", r.Static.TimeSec, r.SimCapW, r.VizCapW)
			staticAvg = fmt.Sprintf("%.1f", r.Static.AvgPowerWatts)
		}
		fmt.Fprintf(&b, "%-8s %13.4fs %8.1f %13.4fs %8.1f %16s %8s %11.4fs %8.1f\n",
			fmt.Sprintf("%.0f W", r.BudgetWatts), r.Live.TimeSec, r.Live.AvgPowerWatts,
			r.Eq.TimeSec, r.Eq.AvgPowerWatts, static, staticAvg, r.Uniform.TimeSec, r.Uniform.AvgPowerWatts)
	}
	for _, r := range res.Rows {
		if r.StaticErr != nil {
			fmt.Fprintf(&b, "%.0f W: no feasible static plan (%v); closed loop ran %.4fs at %.1f W\n",
				r.BudgetWatts, r.StaticErr, r.Live.TimeSec, r.Live.AvgPowerWatts)
			continue
		}
		fmt.Fprintf(&b, "%.0f W: at equal energy the closed loop is %.3fx vs the static plan, %.3fx vs uniform\n",
			r.BudgetWatts, r.EqSpeedupVsStatic(), r.GovSpeedupVsUniform())
	}
	if len(res.ClassDemand) > 0 {
		var classes []metrics.Class
		for class := range res.ClassDemand {
			classes = append(classes, class)
		}
		slices.Sort(classes)
		b.WriteString("governor-measured class demand:")
		for _, class := range classes {
			fmt.Fprintf(&b, " %s %.1f W", class, res.ClassDemand[class])
		}
		b.WriteByte('\n')
	}
	var decisions int
	var decDropped int64
	var sampDropped int
	for _, r := range res.Rows {
		decisions += len(r.Live.Decisions)
		decDropped += r.Live.DecisionsDropped
		sampDropped += r.Live.SamplesDropped
	}
	fmt.Fprintf(&b, "flight recorder: %d cap decisions retained across the sweep", decisions)
	if decDropped > 0 {
		fmt.Fprintf(&b, " (%d overwritten)", decDropped)
	}
	b.WriteByte('\n')
	if sampDropped > 0 {
		fmt.Fprintf(&b, "power meter: %d samples dropped from the bounded rings\n", sampDropped)
	}
	return b.String()
}

// writeGovern appends the closed-loop capping section for every size the
// campaign swept.
func (c *Config) writeGovern(b *strings.Builder) {
	governs := c.cachedGoverns()
	if len(governs) == 0 {
		return
	}
	b.WriteString("\n## Closed-loop capping\n\n")
	b.WriteString("The telemetry-driven governor (internal/power) reprograms the RAPL\n")
	b.WriteString("limit at every phase boundary plus a 100 ms tick, classifying each\n")
	b.WriteString("phase online from live counters (turbo-normalized IPC, unthrottled\n")
	b.WriteString("draw, throttle state) and banking opportunity-phase headroom for the\n")
	b.WriteString("sensitive phases. The equal-energy column replays the same recorded\n")
	b.WriteString("work with the target lowered to the static plan's achieved average, so\n")
	b.WriteString("the comparison never pays for speed with extra energy.\n")
	for _, res := range governs {
		b.WriteString("\n```\n")
		b.WriteString(GovernTable(res))
		b.WriteString("```\n")
		if len(res.Attribution) > 0 {
			fmt.Fprintf(b, "\nWhere the joules went (%d^3, live governed runs; span self time\njoined with each phase's measured energy):\n\n```\n", res.Size)
			obs.WriteJoulesTable(b, res.Attribution)
			b.WriteString("```\n")
		}
	}
}
