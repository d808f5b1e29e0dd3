package power

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/msr"
	"repro/internal/ops"
	"repro/internal/perfctr"
	"repro/internal/rapl"
)

// computeExec is a compute-bound (power-sensitive) synthetic phase and
// memoryExec a bandwidth-bound (power-opportunity) one — the same pair
// the core classification tests calibrate against.
func computeExec() cpu.Execution {
	var p ops.Profile
	p.Flops = 8e9
	p.LoadBytes[ops.Resident] = 16e9
	p.WorkingSetBytes = 16 << 20
	p.Launches = 2
	return cpu.Analyze(cpu.BroadwellEP(), p, 0)
}

func memoryExec() cpu.Execution {
	var p ops.Profile
	p.Flops = 4e8
	p.LoadBytes[ops.Stream] = 24e9
	p.WorkingSetBytes = 140 << 20
	p.Launches = 2
	return cpu.Analyze(cpu.BroadwellEP(), p, 0)
}

func newRAPL() *rapl.Package {
	return rapl.NewPackage(msr.NewFile(), cpu.BroadwellEP())
}

// policies are the four control laws, built the way their production
// callers build them; the static plan is core.PlanPhaseCaps over the
// canonical hot/cold pair at the run's target.
var policies = []struct {
	name  string
	build func(*rapl.Package, Options) (*Governor, error)
}{
	{"closed-loop", New},
	{"integral", NewIntegral},
	{"static", func(pkg *rapl.Package, opt Options) (*Governor, error) {
		return NewTable(pkg, opt, planCaps(opt.TargetWatts))
	}},
	{"uniform", func(pkg *rapl.Package, opt Options) (*Governor, error) { return NewTable(pkg, opt, nil) }},
}

// planCaps is the static plan for the hot/cold pair at target as a cap
// table; nil (the uniform cap) where no plan exists, which only happens
// for targets the engine rejects anyway.
func planCaps(target float64) map[string]float64 {
	plan, err := core.PlanPhaseCaps(computeExec(), memoryExec(), target)
	if err != nil {
		return nil
	}
	return map[string]float64{"hot": plan.SimCapWatts, "cold": plan.VizCapWatts}
}

// eachPolicy runs segs under every policy with the same options.
func eachPolicy(t *testing.T, segs []Segment, opt Options, check func(t *testing.T, name string, res Result)) {
	t.Helper()
	for _, p := range policies {
		t.Run(p.name, func(t *testing.T) {
			g, err := p.build(newRAPL(), opt)
			if err != nil {
				t.Fatal(err)
			}
			res, err := g.RunSegments(segs)
			if err != nil {
				t.Fatal(err)
			}
			check(t, p.name, res)
		})
	}
}

// closedForm is the oracle the harness used to print: every segment
// under its cap, summed.
func closedForm(segs []Segment, capOf func(label string) float64) (timeSec, energyJ float64) {
	for _, s := range segs {
		r := s.Exec.UnderCap(capOf(s.Label))
		timeSec += r.TimeSec
		energyJ += r.EnergyJ
	}
	return timeSec, energyJ
}

func TestFeedbackTracksTarget(t *testing.T) {
	// Alternating hot and cold phases, several cycles: the controller
	// must hold the job-average power near the target even though no
	// static cap does.
	target := 65.0
	g, err := NewIntegral(newRAPL(), Options{TargetWatts: target, IntervalSec: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.RunSegments(mixedSegments(3))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.AvgPowerWatts-target) > 0.08*target {
		t.Errorf("achieved average %.2f W, want within 8%% of %.0f W", res.AvgPowerWatts, target)
	}
	if len(res.Samples) == 0 {
		t.Fatal("no samples")
	}
}

// The target rules are the engine's, so they hold for every policy:
// below the cap floor is an error; above TDP is clamped before the
// opening limit is programmed and in everything the result reports.
func TestGovernorRejectsTargetBelowFloor(t *testing.T) {
	spec := cpu.BroadwellEP()
	for _, p := range policies {
		t.Run(p.name, func(t *testing.T) {
			if _, err := p.build(newRAPL(), Options{TargetWatts: 20}); err == nil {
				t.Error("target below floor accepted")
			}
			g, err := p.build(newRAPL(), Options{TargetWatts: 200, IntervalSec: 0.01})
			if err != nil {
				t.Fatalf("target above TDP rejected: %v", err)
			}
			res, err := g.RunSegments(mixedSegments(2))
			if err != nil {
				t.Fatal(err)
			}
			if res.TargetWatts != spec.TDPWatts {
				t.Errorf("reported target %.1f W, want clamped to the %.0f W TDP", res.TargetWatts, spec.TDPWatts)
			}
			if res.FinalCapWatts > spec.TDPWatts {
				t.Errorf("final cap %.1f W above TDP", res.FinalCapWatts)
			}
			for i, d := range res.Decisions {
				if d.NewWatts > spec.TDPWatts {
					t.Errorf("decision %d (%s) programmed %.1f W, above TDP", i, d.Reason, d.NewWatts)
				}
			}
		})
	}
}

func TestGovernorEnergyAccounting(t *testing.T) {
	eachPolicy(t, mixedSegments(4), Options{TargetWatts: 70, IntervalSec: 0.01}, func(t *testing.T, _ string, res Result) {
		if res.TimeSec <= 0 || res.EnergyJ <= 0 {
			t.Fatalf("degenerate run: %+v", res)
		}
		if got := res.EnergyJ / res.TimeSec; math.Abs(got-res.AvgPowerWatts) > 1e-9 {
			t.Errorf("average identity broken: %.4f vs %.4f", got, res.AvgPowerWatts)
		}
		// What the sampler read off the energy counter is what the run
		// accounted.
		var sampled float64
		for _, s := range res.Samples {
			sampled += s.EnergyJ
		}
		if math.Abs(sampled-res.EnergyJ) > 0.02*res.EnergyJ+0.01 {
			t.Errorf("sampled energy %.2f J vs accounted %.2f J", sampled, res.EnergyJ)
		}
		var phaseJ, phaseT float64
		for _, p := range res.Phases {
			phaseJ += p.EnergyJ
			phaseT += p.TimeSec
		}
		if math.Abs(phaseJ-res.EnergyJ) > 1e-6*res.EnergyJ {
			t.Errorf("phase energies sum to %.2f J, run spent %.2f J", phaseJ, res.EnergyJ)
		}
		if math.Abs(phaseT-res.TimeSec) > 1e-9 {
			t.Errorf("phase times sum to %.4fs, run took %.4fs", phaseT, res.TimeSec)
		}
	})
}

func TestGovernorSampleBound(t *testing.T) {
	// A long run must not grow the retained timeline without bound: the
	// ring keeps the newest MaxSamples (DefaultMaxSamples when unset) in
	// order and counts the evictions.
	for _, c := range []struct {
		name     string
		opt      Options
		capacity int
	}{
		{"max-64", Options{TargetWatts: 65, IntervalSec: 0.001, MaxSamples: 64}, 64},
		{"default", Options{TargetWatts: 65, IntervalSec: 0.0001}, DefaultMaxSamples},
	} {
		t.Run(c.name, func(t *testing.T) {
			eachPolicy(t, mixedSegments(4), c.opt, func(t *testing.T, _ string, res Result) {
				if res.SamplesDropped <= 0 {
					t.Fatalf("long run evicted nothing (%d samples retained)", len(res.Samples))
				}
				if len(res.Samples) != c.capacity {
					t.Fatalf("dropped %d yet retained %d, capacity is %d", res.SamplesDropped, len(res.Samples), c.capacity)
				}
				for i := 1; i < len(res.Samples); i++ {
					if res.Samples[i].TimeSec <= res.Samples[i-1].TimeSec {
						t.Fatalf("retained timeline out of order at %d", i)
					}
				}
			})
		})
	}
}

func TestGovernorBeatsUniformCapOnTime(t *testing.T) {
	// Every policy that moves watts between phases must finish the same
	// work no later than the uniform cap — the phase-aware governor
	// strictly sooner — and never by overspending the budget.
	target := 65.0
	segs := mixedSegments(8)
	opt := Options{TargetWatts: target, IntervalSec: 0.01}
	u, err := NewTable(newRAPL(), opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := u.RunSegments(segs)
	if err != nil {
		t.Fatal(err)
	}
	eachPolicy(t, segs, opt, func(t *testing.T, name string, res Result) {
		switch {
		case name == "closed-loop" && res.TimeSec >= uniform.TimeSec:
			t.Errorf("governed time %.4fs not better than uniform cap %.4fs", res.TimeSec, uniform.TimeSec)
		case res.TimeSec > uniform.TimeSec+1e-9:
			t.Errorf("time %.4fs worse than uniform cap %.4fs", res.TimeSec, uniform.TimeSec)
		}
		if res.AvgPowerWatts > target*(1+0.02) {
			t.Errorf("average %.2f W exceeds the %.0f W budget", res.AvgPowerWatts, target)
		}
	})
}

func TestGovernorGenerousTargetRunsFree(t *testing.T) {
	spec := cpu.BroadwellEP()
	segs := mixedSegments(4)
	free, _ := closedForm(segs, func(string) float64 { return spec.TDPWatts })
	eachPolicy(t, segs, Options{TargetWatts: spec.TDPWatts, IntervalSec: 0.01}, func(t *testing.T, name string, res Result) {
		if math.Abs(res.TimeSec-free) > 0.01*free {
			t.Errorf("TDP target took %.4fs, unconstrained is %.4fs", res.TimeSec, free)
		}
		// Conditional integration: the rail is the settling point, and the
		// integral must not have wound past it. (The phase-aware policies
		// may park the cold phase lower, at its free level.)
		if (name == "integral" || name == "uniform") && res.FinalCapWatts != spec.TDPWatts {
			t.Errorf("cap settled at %.1f W, want pinned at TDP", res.FinalCapWatts)
		}
	})
}

// The closed-form sums the harness and the feedback verb used to print
// are the oracle for the table policies: run through the engine on
// integer-watt caps, the static plan and the uniform cap must reproduce
// Σ seg.Exec.UnderCap(cap) in time and energy.
func TestTablePoliciesMatchClosedForm(t *testing.T) {
	segs := mixedSegments(6)
	for _, target := range []float64{55, 65, 75, 120} {
		for name, caps := range map[string]map[string]float64{"uniform": nil, "static": planCaps(target)} {
			t.Run(fmt.Sprintf("%s/%.0fW", name, target), func(t *testing.T) {
				if name == "static" && caps == nil {
					t.Fatal("no static plan at this target")
				}
				g, err := NewTable(newRAPL(), Options{TargetWatts: target}, caps)
				if err != nil {
					t.Fatal(err)
				}
				res, err := g.RunSegments(segs)
				if err != nil {
					t.Fatal(err)
				}
				wantT, wantJ := closedForm(segs, func(label string) float64 {
					if w, ok := caps[label]; ok {
						return w
					}
					return target
				})
				if math.Abs(res.TimeSec-wantT) > 1e-9*wantT {
					t.Errorf("engine time %.12fs, closed form %.12fs", res.TimeSec, wantT)
				}
				if math.Abs(res.EnergyJ-wantJ) > 1e-9*wantJ {
					t.Errorf("engine energy %.12f J, closed form %.12f J", res.EnergyJ, wantJ)
				}
				if res.Reprograms > len(segs) {
					t.Errorf("a table policy reprogrammed %d times over %d phases", res.Reprograms, len(segs))
				}
			})
		}
	}
}

func TestSampleRing(t *testing.T) {
	r := newSampleRing(4)
	for i := 0; i < 10; i++ {
		r.push(perfctr.Sample{TimeSec: float64(i)})
	}
	got := r.samples()
	if len(got) != 4 || r.dropped() != 6 {
		t.Fatalf("len %d dropped %d, want 4 and 6", len(got), r.dropped())
	}
	for i, s := range got {
		if s.TimeSec != float64(6+i) {
			t.Errorf("slot %d holds t=%.0f, want %.0f", i, s.TimeSec, float64(6+i))
		}
	}
}
