package power

import (
	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/perfctr"
)

// policy is the control law of a governed run — the one thing the
// uniform cap, the static phase plan, the integral controller and the
// closed-loop governor differ in. A policy answers with the cap it wants
// in Decision.NewWatts, plus whatever control-law terms it has for the
// flight record; the engine clamps the cap to the rails, programs it,
// counts it and records it. A policy never touches the package or the
// meter: all it may see is what the engine already sampled.
type policy interface {
	// boundary decides the cap a phase with this label opens under. The
	// engine programs it unconditionally.
	boundary(label string) obs.Decision
	// observe is shown every sampled tick of the running phase and
	// reports whether the cap should move, and to what.
	observe(t tick) (obs.Decision, bool)
	// endPhase notes the finished phase — rep carries its time, energy
	// and average power, avgW is the job average so far — and fills in
	// what the policy remembers about the label.
	endPhase(rep *PhaseReport, avgW float64)
}

// tick is one control interval as a policy sees it: the sampler's
// reading, the interval's length, package power and throttle state, the
// effective limit it ran under, the job-average power so far, and the
// pool idle fraction of the surrounding live phase (zero on replays).
type tick struct {
	sample                           perfctr.Sample
	dt, powerW, capW, avgW, idleFrac float64
	throttled                        bool
}

// table is the static policy: a fixed cap per phase label and the job
// target for any label it does not name, so the empty table is the
// uniform cap. It never moves a cap inside a phase.
type table struct {
	caps    map[string]float64
	targetW float64
}

func (p table) boundary(label string) obs.Decision {
	if w, ok := p.caps[label]; ok {
		return obs.Decision{NewWatts: w}
	}
	return obs.Decision{NewWatts: p.targetW}
}

func (table) observe(tick) (obs.Decision, bool) { return obs.Decision{}, false }

func (table) endPhase(*PhaseReport, float64) {}

// integral is the GEOPM-style single-knob controller: instead of a
// static limit, every tick nudges the cap by trimGainWPerW watts per watt
// of job-average error, so data-bound phases that cannot use their
// allowance donate headroom to later compute-bound phases — the dynamic
// reallocation the paper's Section VII proposes — without any notion of
// what a phase is. The integral only accumulates while the cap is off
// its saturation rail in the error's direction (conditional-integration
// anti-windup).
type integral struct {
	spec    cpu.Spec
	targetW float64
	capW    float64
}

func newIntegral(spec cpu.Spec, opt Options) policy {
	return &integral{spec: spec, targetW: opt.TargetWatts, capW: opt.TargetWatts}
}

// boundary keeps the integrator's cap: a phase change is not an event to
// this law.
func (p *integral) boundary(string) obs.Decision { return obs.Decision{NewWatts: p.capW} }

func (p *integral) observe(t tick) (obs.Decision, bool) {
	errW := p.targetW - t.avgW
	atTDP := p.capW >= p.spec.TDPWatts-1e-9
	atFloor := p.capW <= p.spec.MinCapWatts+1e-9
	if (atTDP && errW > 0) || (atFloor && errW < 0) {
		// A cap pinned at a rail stops accumulating error it cannot act on.
		return obs.Decision{}, false
	}
	p.capW = clamp(p.capW+trimGainWPerW*errW, p.spec.MinCapWatts, p.spec.TDPWatts)
	return obs.Decision{NewWatts: p.capW}, true
}

func (*integral) endPhase(*PhaseReport, float64) {}
