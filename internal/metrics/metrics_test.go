package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cpu"
	"repro/internal/ops"
)

func res(cap, t, f float64) cpu.CapResult {
	return cpu.CapResult{CapWatts: cap, TimeSec: t, FreqGHz: f, PowerWatts: cap * 0.9, EnergyJ: cap * 0.9 * t}
}

func TestComputeRatios(t *testing.T) {
	base := res(120, 10, 2.6)
	r := res(60, 12, 2.0)
	got := Compute(base, r)
	if math.Abs(got.Pratio-2.0) > 1e-12 {
		t.Errorf("Pratio = %v, want 2", got.Pratio)
	}
	if math.Abs(got.Tratio-1.2) > 1e-12 {
		t.Errorf("Tratio = %v, want 1.2", got.Tratio)
	}
	if math.Abs(got.Fratio-1.3) > 1e-12 {
		t.Errorf("Fratio = %v, want 1.3", got.Fratio)
	}
}

func TestComputeRatiosDegenerate(t *testing.T) {
	got := Compute(res(0, 0, 0), res(0, 0, 0))
	if got.Pratio != 0 || got.Tratio != 0 || got.Fratio != 0 {
		t.Errorf("degenerate ratios = %+v, want zeros", got)
	}
}

func TestFirstSlowdownCap(t *testing.T) {
	base := res(120, 10, 2.6)
	byCap := []cpu.CapResult{
		res(120, 10, 2.6),
		res(110, 10.2, 2.6),
		res(100, 10.5, 2.5),
		res(90, 11.2, 2.3), // 1.12x: first >= 1.10
		res(80, 13, 2.0),
	}
	if got := FirstSlowdownCap(base, byCap); got != 90 {
		t.Errorf("FirstSlowdownCap = %v, want 90", got)
	}
	// No slowdown anywhere.
	flat := []cpu.CapResult{res(120, 10, 2.6), res(40, 10.5, 2.4)}
	if got := FirstSlowdownCap(base, flat); got != 0 {
		t.Errorf("flat FirstSlowdownCap = %v, want 0", got)
	}
}

func TestFirstSlowdownCapShuffledInput(t *testing.T) {
	base := res(120, 10, 2.6)
	// Same sweep as above, deliberately out of order: the rule must not
	// depend on caller-supplied ordering.
	shuffled := []cpu.CapResult{
		res(80, 13, 2.0),
		res(120, 10, 2.6),
		res(90, 11.2, 2.3),
		res(100, 10.5, 2.5),
		res(110, 10.2, 2.6),
	}
	if got := FirstSlowdownCap(base, shuffled); got != 90 {
		t.Errorf("shuffled FirstSlowdownCap = %v, want 90", got)
	}
	// The base cap itself never matches, even with a pathological time.
	poisoned := []cpu.CapResult{res(120, 20, 2.6), res(70, 10.5, 2.4)}
	if got := FirstSlowdownCap(base, poisoned); got != 0 {
		t.Errorf("base cap matched its own slowdown rule: got %v, want 0", got)
	}
}

func TestRate(t *testing.T) {
	if got := Rate(2097152, 2.0); got != 1048576 {
		t.Errorf("Rate = %v", got)
	}
	if Rate(100, 0) != 0 {
		t.Error("Rate with zero time should be 0")
	}
}

// Property: the Section V-A identity — for any positive inputs,
// Compute(base, base) is all ones.
func TestSelfRatiosAreUnity(t *testing.T) {
	f := func(capR, tR, fR uint16) bool {
		c := float64(capR%1000) + 1
		tt := float64(tR%1000)/10 + 0.1
		ff := float64(fR%30)/10 + 0.5
		r := res(c, tt, ff)
		got := Compute(r, r)
		return math.Abs(got.Pratio-1) < 1e-12 &&
			math.Abs(got.Tratio-1) < 1e-12 &&
			math.Abs(got.Fratio-1) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestClassify sweeps a compute-bound and a memory-bound profile over the
// study's nine caps on the paper's processor: the first is power
// sensitive, the second offers power opportunity.
func TestClassify(t *testing.T) {
	sweep := func(p ops.Profile) Class {
		e := cpu.Analyze(cpu.BroadwellEP(), p, 0)
		var byCap []cpu.CapResult
		for w := 120.0; w >= 40; w -= 10 {
			byCap = append(byCap, e.UnderCap(w))
		}
		return Classify(FirstSlowdownCap(byCap[0], byCap))
	}
	var compute, memory ops.Profile
	compute.Flops = 8e9
	compute.LoadBytes[ops.Resident] = 16e9
	compute.WorkingSetBytes = 16 << 20
	compute.Launches = 2
	memory.Flops = 4e8
	memory.LoadBytes[ops.Stream] = 24e9
	memory.WorkingSetBytes = 140 << 20
	memory.Launches = 2
	if got := sweep(compute); got != PowerSensitive {
		t.Errorf("compute-bound classified as %v", got)
	}
	if got := sweep(memory); got != PowerOpportunity {
		t.Errorf("memory-bound classified as %v", got)
	}
	if PowerSensitive.String() != "power sensitive" || PowerOpportunity.String() != "power opportunity" {
		t.Error("class names wrong")
	}
}
