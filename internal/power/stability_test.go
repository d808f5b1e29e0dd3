package power

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cpu"
)

// Controller stability: the governor must converge to the target,
// respect the enforceable rails, and hold still — no limit cycles, no
// floor↔TDP flapping — on adversarial phase orderings. Frequency-ladder
// dithering (the cap sliding one ladder power step as the bank breathes)
// is the mechanism the governor wins by and is allowed; what these tests
// forbid is oscillation that grows or spans the rails.

// boundaryCaps collects the per-visit boundary cap decisions of one
// label.
func boundaryCaps(res Result, label string) []float64 {
	var out []float64
	for _, p := range res.Phases {
		if p.Label == label {
			out = append(out, p.CapStartWatts)
		}
	}
	return out
}

// lateRange is the spread of the last third of the series.
func lateRange(caps []float64) float64 {
	tail := caps[len(caps)-len(caps)/3:]
	lo, hi := tail[0], tail[0]
	for _, c := range tail {
		lo = math.Min(lo, c)
		hi = math.Max(hi, c)
	}
	return hi - lo
}

// latePeriodDrift is the largest change between corresponding visits of
// successive periods over the last third of the series — zero for a
// settled periodic steady state, large for a growing oscillation.
func latePeriodDrift(caps []float64, period int) float64 {
	drift := 0.0
	for i := len(caps) - len(caps)/3; i < len(caps); i++ {
		if i < period {
			continue
		}
		drift = math.Max(drift, math.Abs(caps[i]-caps[i-period]))
	}
	return drift
}

func TestGovernorConvergesOnAlternating(t *testing.T) {
	target := 65.0
	res := govern(t, mixedSegments(10), target)
	if got := math.Abs(res.AvgPowerWatts - target); got > 0.02*target {
		t.Errorf("average %.2f W misses the %.0f W target by %.2f W (>2%%)", res.AvgPowerWatts, target, got)
	}
	// The boundary decisions must settle: late-window spread bounded by
	// about one ladder power step, far from rail-to-rail.
	for _, label := range []string{"hot", "cold"} {
		caps := boundaryCaps(res, label)
		if len(caps) < 6 {
			t.Fatalf("only %d %s visits recorded", len(caps), label)
		}
		if r := lateRange(caps); r > 12 {
			t.Errorf("%s boundary caps still swinging %.1f W late in the run: %v", label, r, caps)
		}
	}
}

func TestGovernorClampsToEnforceableRange(t *testing.T) {
	spec := cpu.BroadwellEP()
	// Floor target on a hot workload: every decision stays in range and
	// the average cannot reach an unreachably low target from above by
	// more than the floor allows.
	res := govern(t, mixedSegments(6), spec.MinCapWatts)
	for _, p := range res.Phases {
		if p.CapStartWatts < spec.MinCapWatts-1e-9 || p.CapStartWatts > spec.TDPWatts+1e-9 {
			t.Fatalf("boundary cap %.2f W outside [%.0f, %.0f]", p.CapStartWatts, spec.MinCapWatts, spec.TDPWatts)
		}
		if p.CapEndWatts < spec.MinCapWatts-1e-9 || p.CapEndWatts > spec.TDPWatts+1e-9 {
			t.Fatalf("end cap %.2f W outside the enforceable range", p.CapEndWatts)
		}
	}
}

func TestGovernorUnreachablyHighTargetSaturatesCleanly(t *testing.T) {
	// All-cold workload under a target above its demand: the controller
	// must not wind up chasing power the phase cannot draw, and must not
	// throttle it either.
	cold := memoryExec()
	var segs []Segment
	for i := 0; i < 8; i++ {
		segs = append(segs, Segment{Label: "cold", Exec: cold})
	}
	res := govern(t, segs, 100)
	free := float64(len(segs)) * cold.UnderCap(120).TimeSec
	if math.Abs(res.TimeSec-free) > 0.01*free {
		t.Errorf("under-demand target took %.4fs, free run is %.4fs", res.TimeSec, free)
	}
	if res.AvgPowerWatts > 100 {
		t.Errorf("average %.2f W exceeds the target", res.AvgPowerWatts)
	}
}

// adversarial phase orderings: whatever order the classes arrive in,
// the late-window boundary decisions must be settled and the budget
// respected.
func TestGovernorNoLimitCycleAcrossOrderings(t *testing.T) {
	hot := computeExec()
	cold := memoryExec()
	seg := func(pattern string, i int) Segment {
		if pattern[i%len(pattern)] == 'h' {
			return Segment{Label: "hot", Exec: hot}
		}
		return Segment{Label: "cold", Exec: cold}
	}
	patterns := map[string]string{
		"all-hot":     "h",
		"all-cold":    "c",
		"alternating": "hc",
		"blocks":      "hhcc",
		"skewed":      "hcchchhccc",
	}
	target := 65.0
	for name, pattern := range patterns {
		t.Run(name, func(t *testing.T) {
			var segs []Segment
			for i := 0; i < 30; i++ {
				segs = append(segs, seg(pattern, i))
			}
			res := govern(t, segs, target)
			// Never over budget (under is legitimate: an all-cold
			// workload cannot reach 65 W).
			if res.AvgPowerWatts > target*(1+0.02) {
				t.Errorf("average %.2f W busts the %.0f W budget", res.AvgPowerWatts, target)
			}
			// A blocked ordering legitimately settles into a periodic
			// steady state (the first cold visit of a block repays the
			// hot visits' deficit, the second coasts at the knee), so
			// stability means period-over-period drift goes to zero,
			// not that every visit gets the same cap.
			for _, label := range []string{"hot", "cold"} {
				caps := boundaryCaps(res, label)
				period := strings.Count(pattern, label[:1])
				if period == 0 || len(caps) < 3*period {
					continue
				}
				if d := latePeriodDrift(caps, period); d > 5 {
					t.Errorf("%s: %s boundary caps drift %.1f W period-over-period late in the run: %v", name, label, d, caps)
				}
			}
		})
	}
}

func TestControllerTrimConditionalIntegration(t *testing.T) {
	spec := cpu.BroadwellEP()
	c := controller{spec: spec, targetW: 65, gain: 0.5}
	// Unthrottled phase: no cap change can move the power, the error
	// must not integrate.
	c.trimUpdate(60, false, false, false)
	if c.trimW != 0 {
		t.Errorf("trim moved on an unthrottled phase: %.2f", c.trimW)
	}
	// Pinned at TDP with a positive error: frozen.
	c.trimUpdate(60, true, true, false)
	if c.trimW != 0 {
		t.Errorf("trim wound up at the TDP rail: %.2f", c.trimW)
	}
	// Pinned at the floor with a negative error: frozen.
	c.trimUpdate(70, true, false, true)
	if c.trimW != 0 {
		t.Errorf("trim wound down at the floor rail: %.2f", c.trimW)
	}
	// In range and binding: integrates, and saturates at the clamp.
	for i := 0; i < 100; i++ {
		c.trimUpdate(60, true, false, false)
	}
	if c.trimW != trimClampW {
		t.Errorf("trim %.2f, want clamped at %.0f", c.trimW, float64(trimClampW))
	}
}

func TestControllerBankClamps(t *testing.T) {
	spec := cpu.BroadwellEP()
	c := controller{spec: spec, targetW: 65, gain: 0.5}
	// A long donation stretch cannot bank more than a sensitive phase
	// can spend.
	c.credit(1000, 40)
	c.clampBank(110, -25)
	if c.bankJ != 110 {
		t.Errorf("bank %.1f J, want clamped at 110 J", c.bankJ)
	}
	// And a long overdraft is forgiven past what a cycle can repay.
	c.bankJ = 0
	c.credit(1000, 120)
	c.clampBank(110, -25)
	if c.bankJ != -25 {
		t.Errorf("deficit %.1f J, want clamped at -25 J", c.bankJ)
	}
}
