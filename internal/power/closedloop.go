package power

import (
	"math"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/obs"
)

// closedLoop is the phase-aware law New attaches: each phase label is
// classified online from the ticks it is shown (classify.go) and the cap
// is steered by feed-forward + energy bank + trim (controller.go).
type closedLoop struct {
	spec        cpu.Spec
	targetW     float64
	intervalSec float64

	ctrl   controller
	states map[string]*phaseState
	order  []string
	// done counts completed phases.
	done int

	// The running phase: its label's memory, the last cap asked for (the
	// hysteresis reference), and what its ticks saw.
	st                            *phaseState
	capW                          float64
	sawThrottle, sawTDP, sawFloor bool
}

func newClosedLoop(spec cpu.Spec, opt Options) policy {
	return &closedLoop{
		spec:        spec,
		targetW:     opt.TargetWatts,
		intervalSec: opt.IntervalSec,
		ctrl:        controller{spec: spec, targetW: opt.TargetWatts, gain: trimGainWPerW},
		states:      make(map[string]*phaseState),
	}
}

// boundary reprograms from the label's remembered class and the current
// bank.
func (l *closedLoop) boundary(label string) obs.Decision {
	l.st = l.state(label)
	l.sawThrottle, l.sawTDP, l.sawFloor = false, false, false
	l.capW = l.desiredCap(l.st)
	return l.verdict(l.capW)
}

// observe credits the tick to the bank, folds its sample into the
// label's classification, and retunes behind the hysteresis band.
func (l *closedLoop) observe(t tick) (obs.Decision, bool) {
	l.ctrl.credit(t.dt, t.powerW)
	hb := l.horizons()
	l.ctrl.clampBank(hb.hiJ, hb.loJ)
	l.st.observe(t.sample, l.spec, t.capW, t.idleFrac)
	if t.throttled {
		l.sawThrottle = true
	}
	if t.capW >= l.spec.TDPWatts-0.5 {
		l.sawTDP = true
	}
	if t.capW <= l.spec.MinCapWatts+0.5 {
		l.sawFloor = true
	}

	want := l.desiredCap(l.st)
	if math.Abs(want-l.capW) < hysteresisWatts {
		return obs.Decision{}, false
	}
	l.capW = want
	return l.verdict(want), true
}

func (l *closedLoop) endPhase(rep *PhaseReport, avgW float64) {
	st := l.st
	st.noteDuration(rep.TimeSec, rep.AvgPowerWatts)
	if st.class == core.PowerSensitive {
		// Trim on the job-average residual the bank could not remove —
		// conditional integration keeps it frozen while the cap is not
		// binding or is pinned at a rail.
		l.ctrl.trimUpdate(avgW, l.sawThrottle, l.sawTDP, l.sawFloor)
	}
	l.done++

	rep.Cycle = st.visits
	rep.Class = st.class
	rep.Score = st.score
	rep.DemandWatts = st.measuredDemandW()
	rep.DemandIsFree = st.demandW > 0
}

// verdict is the cap the law wants for the running phase together with
// the control-law terms that produced it, for the flight record.
func (l *closedLoop) verdict(want float64) obs.Decision {
	return obs.Decision{
		Cycle:        l.st.visits + 1,
		Class:        l.st.class.String(),
		Score:        l.st.score,
		FeedforwardW: l.horizons().ffW,
		BankJ:        l.ctrl.bankJ,
		TrimW:        l.ctrl.trimW,
		NewWatts:     want,
	}
}

// Warm seeds the closed-loop law's per-label memory — class, score,
// duration, knee, demand — from a prior run's phase reports, so a re-run
// of the same job (or a budget change mid-job) starts from the learned
// state instead of re-paying the discovery transient. The static planner
// gets its profile from recorded segments; Warm is the closed loop's
// equivalent. Control state (bank, trim) is not carried: it is specific
// to the old target. The table and integral policies keep no phase
// memory, so Warm leaves a Governor built on them as it is.
func (g *Governor) Warm(prior *Result) {
	l, ok := g.law.(*closedLoop)
	if !ok || prior == nil {
		return
	}
	for i := range prior.Phases {
		p := &prior.Phases[i]
		st := l.state(p.Label)
		st.class = p.Class
		st.score = p.Score
		if p.TimeSec > 0 {
			st.durSec = p.TimeSec
			st.powerW = p.AvgPowerWatts
		}
		if p.DemandIsFree {
			// The unthrottled peak is the demand itself; a cap one watt
			// above it is known not to bind.
			st.demandW = p.DemandWatts
			st.kneeW = clamp(p.DemandWatts+1, l.spec.MinCapWatts, l.targetW)
		} else if p.DemandWatts > st.throttledW {
			st.throttledW = p.DemandWatts
		}
	}
}

// state returns the per-label memory, creating it on first sight. An
// unseen phase defaults to power sensitive: it is governed like the
// uniform-cap baseline (cap ≈ target) until the counters say otherwise,
// so a misprediction costs nothing worse than the naive policy.
func (l *closedLoop) state(label string) *phaseState {
	if st, ok := l.states[label]; ok {
		return st
	}
	st := &phaseState{
		label: label,
		class: core.PowerSensitive,
		kneeW: l.targetW,
	}
	l.states[label] = st
	l.order = append(l.order, label)
	return st
}

// horizons aggregates the per-label memory into the controller's
// working quantities, all scaled to one representative cycle of phases.
// Labels are weighted by visit count so orderings that visit one class
// more often than another (hhcc blocks, skewed mixes) are accounted at
// their true duty ratio, not as if the mix were one-to-one.
type horizons struct {
	// ffW is the feed-forward sensitive cap — the online re-derivation
	// of the static planner's split: the cap at which the sensitive
	// phases spend exactly the per-cycle energy the opportunity phases
	// leave unused,
	//
	//	ff = (target·Σ_all sec − Σ_opp power·sec) / Σ_sens sec.
	//
	// Until every known label has completed a visit it stays at the
	// target — the uniform-cap opening book. The bank and trim then
	// only carry residuals (ladder quantization, estimate error)
	// instead of having to integrate their way to the whole split.
	ffW float64
	// hiJ bounds the bank above by what one cycle of sensitive phases
	// can physically spend over the target: per label, measured demand
	// minus target (optimistically TDP headroom until the label has
	// drawn any power at all) times its per-cycle seconds. The throttled
	// peak serves as the demand lower bound — the conservative side for
	// a spend clamp, since credit beyond it would fund power no phase
	// has shown it can draw. loJ bounds the deficit at what two full
	// cycles run at the floor could repay.
	hiJ, loJ float64
	// repaySec is the opportunity seconds per cycle (the
	// donation-repayment horizon); cycleSec the total seconds per cycle
	// (the bank burn-down horizon).
	repaySec, cycleSec float64
}

func (l *closedLoop) horizons() horizons {
	h := horizons{ffW: l.targetW}
	maxV := 1
	for _, label := range l.order {
		if st := l.states[label]; st.visits > maxV {
			maxV = st.visits
		}
	}
	var budgetJ, sensSec float64
	complete := len(l.order) > 0
	for _, label := range l.order {
		st := l.states[label]
		if st.durSec <= 0 {
			complete = false
			continue
		}
		sec := st.durSec * float64(st.visits) / float64(maxV)
		h.cycleSec += sec
		if st.class == core.PowerSensitive {
			sensSec += sec
			head := l.spec.TDPWatts - l.targetW
			if d := st.measuredDemandW(); d > 0 {
				head = d - l.targetW
			}
			if head > 0 {
				h.hiJ += head * sec
			}
		} else {
			h.repaySec += sec
			budgetJ -= st.powerW * sec
		}
	}
	if complete && sensSec > 0 {
		budgetJ += l.targetW * h.cycleSec
		h.ffW = clamp(budgetJ/sensSec, l.spec.MinCapWatts, l.spec.TDPWatts)
	}
	// Before any duration estimate exists, one-second horizons keep the
	// clamps meaningful from the first tick.
	if h.hiJ <= 0 && l.done == 0 {
		h.hiJ = l.spec.TDPWatts - l.targetW
	}
	if h.repaySec <= 0 {
		h.repaySec = 1
	}
	if h.cycleSec <= 0 {
		h.cycleSec = 1
	}
	h.loJ = -(l.targetW - l.spec.MinCapWatts) * 2 * h.cycleSec
	return h
}

// desiredCap is the control law: a sensitive phase gets the
// feed-forward split plus the bank spread over one cycle of phases plus
// the trim; an opportunity phase donates down to its learned knee
// (deeper while in deficit, not at all once the bank is full).
func (l *closedLoop) desiredCap(st *phaseState) float64 {
	h := l.horizons()
	if st.class == core.PowerSensitive {
		return l.ctrl.sensitiveCap(h.ffW, maxf(h.cycleSec, l.intervalSec))
	}
	return l.ctrl.opportunityCap(st.kneeW, maxf(h.repaySec, l.intervalSec), h.hiJ)
}
