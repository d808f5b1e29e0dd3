package power

import (
	"repro/internal/cpu"
	"repro/internal/metrics"
	"repro/internal/perfctr"
)

// Online phase classification. The static study classifies an algorithm
// offline from a full cap sweep (first >=10% slowdown at or above 70 W,
// Section VI-B); the governor has to make the same call from the live
// counters while the phase runs. Three signals separate the classes on
// this stack (calibrated against the reproduction's Fig. 2 landing —
// see DESIGN.md §14):
//
//   - turbo-normalized IPC, s.IPC · f_eff/f_turbo: instructions retired
//     per turbo-clock tick. Raw IPC is counted against actual cycles,
//     so it *rises* when a memory-bound phase is throttled (same stall
//     time, fewer cycles) — normalizing by the frequency ratio restores
//     a rate that is high only while compute streams at full tilt.
//   - unthrottled power draw: while the cap is not binding, the sampled
//     package power is the phase's demand. Demand at or above the
//     70 W sensitivity boundary is the definition of power hungry.
//   - throttle state vs. cap level: throttling at a cap at or above
//     70 W means the phase needs more than the boundary; running free
//     at a deep cap means it cannot use even that much.
//
// Each signal votes; the vote stream is smoothed per phase label with
// an EWMA and the class only flips outside a dead band — the
// classification hysteresis that keeps the cap from ringing when a
// phase sits near the boundary.
const (
	// classAlpha is the EWMA weight of the newest vote.
	classAlpha = 0.5
	// classDeadband is the score band inside which the previous class
	// is kept.
	classDeadband = 0.1

	// Turbo-normalized IPC thresholds.
	normIPCSensitive   = 1.35
	normIPCOpportunity = 1.00

	// Unthrottled-power thresholds (watts).
	demandOpportunityW = 62

	// LLC miss-rate extremes. Mid-range rates are common to both
	// classes on this stack, so only the extremes vote.
	missSensitive   = 0.15
	missOpportunity = 0.55

	// poolIdleOpportunity is the phase-level pool idle fraction above
	// which the workers demonstrably cannot be kept busy.
	poolIdleOpportunity = 0.5
)

// classVote scores one live sample in [-1, 1]: positive toward power
// sensitive, negative toward power opportunity. capW is the effective
// limit the sample ran under and idleFrac the pool idle fraction of the
// surrounding phase (NaN-free, 0 when uninstrumented).
func classVote(s perfctr.Sample, spec cpu.Spec, capW, idleFrac float64) float64 {
	v := 0.0
	throttled := s.EffFreqGHz < spec.AllCoreTurboGHz-1e-3

	norm := s.IPC * s.EffFreqGHz / spec.AllCoreTurboGHz
	switch {
	case norm >= normIPCSensitive:
		v++
	case norm <= normIPCOpportunity:
		v--
	}

	if !throttled {
		switch {
		case s.PowerW >= metrics.SensitiveCapWatts:
			v++
		case s.PowerW <= demandOpportunityW:
			v--
		}
	}

	if throttled && capW >= metrics.SensitiveCapWatts {
		v++
	}
	if !throttled && capW <= demandOpportunityW {
		v--
	}

	switch {
	case s.LLCMissRate <= missSensitive:
		v += 0.75
	case s.LLCMissRate >= missOpportunity:
		v -= 0.75
	}

	if idleFrac > poolIdleOpportunity {
		v -= 0.25
	}

	const normBy = 3.0 // max attainable |v|
	return clamp(v/normBy, -1, 1)
}

// phaseState is the governor's per-phase-label memory: the smoothed
// class score, the learned free level (knee) for donation, the duration
// estimate that sets the bank burn-down horizon, and the measured
// demand that feeds the serve admission estimates.
type phaseState struct {
	label  string
	visits int

	score float64
	class metrics.Class

	// durSec is the EWMA of the phase's governed duration.
	durSec float64
	// kneeW is the learned lowest cap that does not throttle the phase
	// — the level an opportunity phase donates down to while the bank
	// is solvent. Starts at the job target and walks toward the floor.
	kneeW float64
	// demandW is the highest unthrottled power observed (the measured
	// demand); throttledW the highest power seen at all, the fallback
	// lower bound when the phase never ran free.
	demandW    float64
	throttledW float64
	// powerW is the EWMA of the label's per-visit average power — the
	// spend estimate the feed-forward split is computed from.
	powerW float64
}

// observe folds one live sample into the label's class score and knee
// estimate. capW is the effective cap the tick ran under.
func (st *phaseState) observe(s perfctr.Sample, spec cpu.Spec, capW, idleFrac float64) {
	vote := classVote(s, spec, capW, idleFrac)
	st.score = (1-classAlpha)*st.score + classAlpha*vote
	switch {
	case st.score >= classDeadband:
		st.class = metrics.PowerSensitive
	case st.score <= -classDeadband:
		st.class = metrics.PowerOpportunity
	}

	throttled := s.EffFreqGHz < spec.AllCoreTurboGHz-1e-3
	if throttled {
		if s.PowerW > st.throttledW {
			st.throttledW = s.PowerW
		}
		// The cap is binding: the free level is above it.
		if capW+2 > st.kneeW {
			st.kneeW = minf(capW+2, spec.TDPWatts)
		}
	} else {
		if s.PowerW > st.demandW {
			st.demandW = s.PowerW
		}
		// Running free, the sampled power is the demand itself — a cap
		// just above it still does not bind, so the knee jumps straight
		// there instead of walking down a watt per tick.
		if cand := maxf(s.PowerW+1, spec.MinCapWatts); cand < st.kneeW {
			st.kneeW = cand
		}
	}
}

// noteDuration folds a completed phase's governed duration and average
// power into the horizon and spend estimates.
func (st *phaseState) noteDuration(sec, avgW float64) {
	st.visits++
	if st.durSec <= 0 {
		st.durSec = sec
		st.powerW = avgW
		return
	}
	st.durSec = 0.5*st.durSec + 0.5*sec
	st.powerW = 0.5*st.powerW + 0.5*avgW
}

// measuredDemandW is the label's best demand estimate: the unthrottled
// peak when one was seen, otherwise the throttled peak (a lower bound).
func (st *phaseState) measuredDemandW() float64 {
	if st.demandW > 0 {
		return st.demandW
	}
	return st.throttledW
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
