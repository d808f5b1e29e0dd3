// Package power closes the loop the paper leaves open: instead of
// planning per-phase RAPL caps offline from a calibrated model
// (core.PlanPhaseCaps), a Governor watches the live hardware signals of
// a real pipeline run — perf-counter IPC, effective frequency, LLC miss
// rate, pool idle/steal counters, per-stage trace self time — and
// reprograms the package limit at every phase boundary plus a 100 ms
// intra-phase tick so the job-average power lands on a target while the
// power-sensitive phases keep every watt the opportunity phases can
// donate.
//
// The package is one engine and four policies: the Governor in this file
// is everything a governed run is apart from the control law, and a
// policy (policy.go, closedloop.go) only answers "what cap now?" from
// what the engine has already measured. Every capped in situ run is a
// governed run: a run under one fixed cap is the uniform policy
// (NewTable with a nil table), metered, sampled and attributed per phase
// like any other.
package power

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/perfctr"
	"repro/internal/rapl"
)

// Options configures a Governor.
type Options struct {
	// TargetWatts is the job-average power target (the facility budget).
	// Must be at least the cap floor; values above TDP are clamped.
	TargetWatts float64
	// IntervalSec is the intra-phase control tick (default
	// perfctr.DefaultInterval, the study's 100 ms).
	IntervalSec float64
}

const (
	// trimGainWPerW is the integral-trim gain in watts of correction per
	// watt of average error.
	trimGainWPerW = 0.5
	// hysteresisWatts is the dead band an intra-phase cap change must
	// exceed before the MSR is reprogrammed. Phase boundaries reprogram
	// unconditionally.
	hysteresisWatts = 1
)

// Segment is one labeled phase execution: what Record captured from a
// live pipeline, and what RunSegments governs. Labels identify the
// recurring phase ("simulate", "visualize") — the governor's memory is
// per label.
type Segment struct {
	Label string
	Exec  cpu.Execution
	// Capture is what was measured around the live phase; zero for
	// synthetic segments.
	Capture
}

// Capture is the live half of a phase report: the pool counters and
// stage summary capturePhase snapshots around a real pipeline phase. No
// cap can change it — the package is modeled and the phase's Go work ran
// before any policy saw it — so a governor shown a recorded phase with
// its Capture sees exactly what it would have seen live.
type Capture struct {
	PoolIdleFrac, StealFrac, WallSec float64
	// Stages is the stage summary of the spans the live phase recorded;
	// nil when it ran untraced. Result.Attribute splits the phase's
	// EnergyJ over its self time.
	Stages []obs.StageStat
}

// PhaseReport is the governed outcome of one phase instance.
type PhaseReport struct {
	Label string
	// Cycle (this label's 1-based visit number), Class and Score (the
	// online classification at phase end) and the demand fields below
	// come from the closed-loop law's per-label memory; the table and
	// integral policies keep none and leave them zero.
	Cycle int
	Class metrics.Class
	Score float64
	// CapStartWatts is the boundary decision, CapEndWatts the effective
	// limit when the phase finished.
	CapStartWatts, CapEndWatts float64
	TimeSec                    float64
	EnergyJ                    float64
	AvgPowerWatts              float64
	// Last-sample counter readings.
	EffFreqGHz, IPC, LLCMissRate float64
	// Capture is the governed segment's live half, passed through.
	Capture
	// DemandWatts is the label's measured demand estimate so far:
	// the unthrottled peak when DemandIsFree, else the throttled peak
	// (a lower bound).
	DemandWatts  float64
	DemandIsFree bool
	Ticks        int
}

// Result is a governed run.
type Result struct {
	TargetWatts   float64
	TimeSec       float64
	EnergyJ       float64
	AvgPowerWatts float64
	FinalCapWatts float64
	// Reprograms counts RAPL limit writes that changed the register.
	Reprograms int
	// Samples is the retained measurement timeline (the newest maxSamples);
	// SamplesDropped counts evicted older samples.
	Samples        []perfctr.Sample
	SamplesDropped int
	// Decisions is the cap-decision log, oldest first (the newest
	// maxDecisions); DecisionsDropped counts evicted older decisions.
	Decisions        []obs.Decision
	DecisionsDropped int64
	Phases           []PhaseReport
	// Segments are the labeled executions the run governed, with their
	// captures; RunSegments over them under the same policy and target
	// reproduces the run bit for bit.
	Segments []Segment
}

// ClassDemand returns the time-weighted measured demand per phase
// class — the calibration the serve admission controller consumes in
// place of spec-TDP guesses.
func (r *Result) ClassDemand() map[metrics.Class]float64 {
	type acc struct{ wJ, t float64 }
	sums := map[metrics.Class]acc{}
	for _, p := range r.Phases {
		if p.DemandWatts <= 0 || p.TimeSec <= 0 {
			continue
		}
		a := sums[p.Class]
		a.wJ += p.DemandWatts * p.TimeSec
		a.t += p.TimeSec
		sums[p.Class] = a
	}
	out := make(map[metrics.Class]float64, len(sums))
	for c, a := range sums {
		out[c] = a.wJ / a.t
	}
	return out
}

// Governor is one governed run: the engine that drives labeled phase
// executions through the meter on one RAPL package while its policy
// decides the cap. One Governor governs one job — the policy's memory
// (bank, trim, per-label state, integrator) carries across phases.
type Governor struct {
	pkg  *rapl.Package
	spec cpu.Spec
	opt  Options
	law  policy

	// The meter: the counter substrate, the run's virtual clock, and the
	// energy-status counter mirrored without its 32-bit wrap.
	mon    *perfctr.Monitor
	nowSec float64
	spentJ float64

	// The two logs a run returns: the meter's samples and the cap
	// decisions.
	samples   ring[perfctr.Sample]
	decisions ring[obs.Decision]

	reprograms int
	phases     []PhaseReport
	segments   []Segment
}

// New builds a Governor under the closed-loop law (closedloop.go)
// targeting opt.TargetWatts job-average power on pkg and programs the
// initial limit (the target — indistinguishable from the uniform-cap
// policy until the first classifications land).
func New(pkg *rapl.Package, opt Options) (*Governor, error) {
	return newGovernor(pkg, opt, newClosedLoop)
}

// NewIntegral builds a Governor under the GEOPM-style integral
// controller: one knob, nudged every tick so the job-average power
// tracks opt.TargetWatts, with no notion of phases.
func NewIntegral(pkg *rapl.Package, opt Options) (*Governor, error) {
	return newGovernor(pkg, opt, newIntegral)
}

// NewTable builds a Governor under a static policy: every phase runs
// under the cap caps holds for its label, or under opt.TargetWatts when
// caps does not name it. With core.PlanPhaseCaps's two caps this is the
// static phase plan; with a nil table it is the uniform cap.
func NewTable(pkg *rapl.Package, opt Options, caps map[string]float64) (*Governor, error) {
	return newGovernor(pkg, opt, func(_ cpu.Spec, opt Options) policy {
		return table{caps: caps, targetW: opt.TargetWatts}
	})
}

// newGovernor applies the target rules (below the cap floor is an error
// naming the floor, above TDP is clamped to TDP), assembles the engine
// around the policy law builds from the checked options, and programs the
// opening limit.
func newGovernor(pkg *rapl.Package, opt Options, law func(cpu.Spec, Options) policy) (*Governor, error) {
	spec := pkg.Spec()
	if opt.TargetWatts < spec.MinCapWatts {
		return nil, fmt.Errorf("power: target %.0f W below the %.0f W cap floor", opt.TargetWatts, spec.MinCapWatts)
	}
	opt.TargetWatts = min(opt.TargetWatts, spec.TDPWatts)
	if opt.IntervalSec <= 0 {
		opt.IntervalSec = perfctr.DefaultInterval
	}
	mon, err := perfctr.NewMonitor(pkg)
	if err != nil {
		return nil, err
	}
	g := &Governor{
		pkg:       pkg,
		spec:      spec,
		opt:       opt,
		law:       law(spec, opt),
		mon:       mon,
		samples:   ring[perfctr.Sample]{cap: maxSamples},
		decisions: ring[obs.Decision]{cap: maxDecisions},
	}
	before := g.pkg.EffectiveCapWatts()
	if err := g.pkg.SetLimitWatts(opt.TargetWatts); err != nil {
		return nil, err
	}
	g.record(obs.Decision{
		Phase:        "(startup)",
		Class:        metrics.PowerSensitive.String(),
		FeedforwardW: opt.TargetWatts,
		OldWatts:     before,
		NewWatts:     g.pkg.EffectiveCapWatts(),
		Reason:       "init: program target as opening cap",
	})
	return g, nil
}

// record logs one cap decision, stamped with the run's virtual clock and
// target.
func (g *Governor) record(d obs.Decision) {
	d.TimeSec, d.TargetWatts = g.nowSec, g.opt.TargetWatts
	g.decisions.push(d)
}

// decide programs the cap a policy asked for (d.NewWatts) and logs the
// transition with the control-law terms d carries.
func (g *Governor) decide(d obs.Decision, label, reason string) error {
	d.OldWatts = g.pkg.EffectiveCapWatts()
	if err := g.program(d.NewWatts); err != nil {
		return err
	}
	d.Phase, d.Reason, d.NewWatts = label, reason, g.pkg.EffectiveCapWatts()
	g.record(d)
	return nil
}

// program writes the limit register, counting only writes that changed
// the quantized value.
func (g *Governor) program(w float64) error {
	w = min(max(w, g.spec.MinCapWatts), g.spec.TDPWatts)
	before := g.pkg.LimitWatts()
	if err := g.pkg.SetLimitWatts(w); err != nil {
		return err
	}
	if g.pkg.LimitWatts() != before {
		g.reprograms++
	}
	return nil
}

// maxTicks guards against a stuck phase.
const maxTicks = 1_000_000

// governPhase advances one labeled execution through the governed tick
// engine: the policy's boundary decision is programmed unconditionally,
// then at each interval the package limit governs the operating point,
// the counters advance, the sampler reads them back, the policy sees the
// tick (with the segment's captured pool-idle fraction), and the cap
// moves if it says so.
func (g *Governor) governPhase(seg Segment) error {
	label, e := seg.Label, seg.Exec
	if err := g.decide(g.law.boundary(label), label, "boundary"); err != nil {
		return err
	}
	rep := PhaseReport{Label: label, Capture: seg.Capture}
	rep.CapStartWatts = g.pkg.EffectiveCapWatts()

	var last perfctr.Sample
	progress := 0.0
	for progress < 1-1e-12 {
		r := g.pkg.Govern(e)
		if r.TimeSec <= 0 {
			break
		}
		dt := (1 - progress) * r.TimeSec
		if dt > g.opt.IntervalSec {
			dt = g.opt.IntervalSec
		}
		frac := dt / r.TimeSec
		g.mon.Advance(dt, r, float64(e.Instructions)*frac, float64(e.LLCRefs)*frac, float64(e.LLCMisses)*frac)
		g.spentJ += r.PowerWatts * dt
		g.nowSec += dt
		s, err := g.mon.Sample(g.nowSec)
		if err != nil {
			return fmt.Errorf("power: %s: %w", label, err)
		}
		g.samples.push(s)
		progress += frac
		rep.TimeSec += dt
		rep.EnergyJ += r.PowerWatts * dt
		rep.Ticks++
		last = s
		avgW := g.avgWatts()
		if rep.Ticks >= maxTicks {
			return fmt.Errorf("power: %s: phase did not finish within %d ticks", label, maxTicks)
		}

		d, retune := g.law.observe(tick{sample: s, dt: dt, powerW: r.PowerWatts, throttled: r.Throttled,
			capW: g.pkg.EffectiveCapWatts(), avgW: avgW, idleFrac: rep.PoolIdleFrac})
		if retune {
			if err := g.decide(d, label, "retune"); err != nil {
				return err
			}
		}
	}

	if rep.TimeSec > 0 {
		rep.AvgPowerWatts = rep.EnergyJ / rep.TimeSec
	}
	g.law.endPhase(&rep, g.avgWatts())
	rep.CapEndWatts = g.pkg.EffectiveCapWatts()
	rep.EffFreqGHz = last.EffFreqGHz
	rep.IPC = last.IPC
	rep.LLCMissRate = last.LLCMissRate
	g.phases = append(g.phases, rep)
	g.segments = append(g.segments, seg)
	return nil
}

// capturePhase runs one pipeline phase and returns it as a segment: its
// execution, plus the pool counters and stage summary snapshotted around
// it.
func capturePhase(pipe *core.Pipeline, label string, run func() (core.PhaseResult, error)) (Segment, error) {
	pre := pipe.Pool.Stats().Totals()
	mark := pipe.Tracer.Mark()
	t0 := time.Now()
	res, err := run()
	if err != nil {
		return Segment{}, err
	}
	seg := Segment{Label: label, Exec: res.Exec, Capture: Capture{WallSec: time.Since(t0).Seconds()}}
	c := &seg.Capture
	post := pipe.Pool.Stats().Totals()
	if n := pipe.Pool.Workers(); n > 0 && c.WallSec > 0 {
		idle := float64(post.IdleNs-pre.IdleNs) / 1e9
		c.PoolIdleFrac = min(max(idle/(c.WallSec*float64(n)), 0), 1)
	}
	if dTasks := post.Tasks - pre.Tasks; dTasks > 0 {
		c.StealFrac = float64(post.Stolen-pre.Stolen) / float64(dTasks)
	}
	c.Stages = pipe.Tracer.Stages(mark)
	return seg, nil
}

// Record runs cycles simulate→visualize cycles of a real pipeline (fewer
// than one is an error) and returns them as segments: each phase's Go
// work executes for real, producing its operation profile, pool counters
// and trace spans, and capturePhase snapshots what a governor may see of
// it. No
// cap is in force while it runs — the package is modeled, so no cap
// could change the work — which is why one recording can be governed
// under any number of policies and targets. On a pipeline error it
// returns the phases that completed together with the error.
func Record(pipe *core.Pipeline, cycles int) ([]Segment, error) {
	if pipe == nil {
		return nil, fmt.Errorf("power: nil pipeline")
	}
	if cycles < 1 {
		return nil, fmt.Errorf("power: %d cycles, need at least 1", cycles)
	}
	segs := make([]Segment, 0, 2*cycles)
	for i := 0; i < cycles; i++ {
		seg, err := capturePhase(pipe, "simulate", pipe.Simulate)
		if err != nil {
			return segs, err
		}
		segs = append(segs, seg)
		if seg, err = capturePhase(pipe, "visualize", pipe.Visualize); err != nil {
			return segs, err
		}
		segs = append(segs, seg)
	}
	return segs, nil
}

// Run governs cycles simulate→visualize cycles of a real pipeline: it
// Records them, then governs the recording with RunSegments, every cap
// decision seeing only what was measured before it. On a pipeline error
// mid-run it governs the phases that completed and returns that partial
// result with the error.
func (g *Governor) Run(pipe *core.Pipeline, cycles int) (Result, error) {
	segs, err := Record(pipe, cycles)
	if len(segs) == 0 {
		return g.finish(), err
	}
	res, gerr := g.RunSegments(segs)
	if gerr != nil {
		return res, gerr
	}
	return res, err
}

// RunSegments governs labeled executions — a Record-ed workload or
// synthetic segments — through the engine, handing each phase's policy
// the segment's Capture as its live signals. The comparison harness uses
// it to govern one recorded workload under different policies and
// targets.
func (g *Governor) RunSegments(segs []Segment) (Result, error) {
	if len(segs) == 0 {
		return g.finish(), fmt.Errorf("power: no segments")
	}
	for _, seg := range segs {
		if err := g.governPhase(seg); err != nil {
			return g.finish(), err
		}
	}
	return g.finish(), nil
}

func (g *Governor) finish() Result {
	return Result{
		TargetWatts:      g.opt.TargetWatts,
		TimeSec:          g.nowSec,
		EnergyJ:          g.spentJ,
		AvgPowerWatts:    g.avgWatts(),
		FinalCapWatts:    g.pkg.EffectiveCapWatts(),
		Reprograms:       g.reprograms,
		Samples:          g.samples.items(),
		SamplesDropped:   g.samples.dropped(),
		Decisions:        g.decisions.items(),
		DecisionsDropped: int64(g.decisions.dropped()),
		Phases:           g.phases,
		Segments:         g.segments,
	}
}

// avgWatts is the job-average power so far.
func (g *Governor) avgWatts() float64 {
	if g.nowSec <= 0 {
		return 0
	}
	return g.spentJ / g.nowSec
}
