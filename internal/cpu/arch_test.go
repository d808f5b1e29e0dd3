package cpu

import (
	"math"
	"testing"

	"repro/internal/ops"
)

// archSpecs returns every modeled architecture.
func archSpecs() []Spec {
	return []Spec{BroadwellEP(), EPYCLike(), KNLLike()}
}

func TestAllSpecsWellFormed(t *testing.T) {
	for _, s := range archSpecs() {
		if s.Name == "" || s.Cores <= 0 {
			t.Errorf("malformed spec: %+v", s)
		}
		if s.MinGHz >= s.AllCoreTurboGHz {
			t.Errorf("%s: frequency range inverted", s.Name)
		}
		if s.MinCapWatts >= s.TDPWatts {
			t.Errorf("%s: cap floor above TDP", s.Name)
		}
		ladder := s.FreqLadder()
		if len(ladder) < 3 {
			t.Errorf("%s: ladder too short (%d)", s.Name, len(ladder))
		}
		for i := 1; i < len(ladder); i++ {
			if ladder[i] <= ladder[i-1] {
				t.Errorf("%s: ladder not ascending", s.Name)
			}
		}
	}
}

func TestPowerMonotoneOnAllArchitectures(t *testing.T) {
	for _, s := range archSpecs() {
		for name, p := range map[string]ops.Profile{"compute": computeBound(), "memory": memoryBound()} {
			e := Analyze(s, p, 0)
			prev := 0.0
			for _, f := range s.FreqLadder() {
				pw := e.PowerAt(f)
				if pw <= prev {
					t.Errorf("%s/%s: power not monotone at %v GHz", s.Name, name, f)
				}
				prev = pw
			}
		}
	}
}

func TestTDPFitsUnconstrainedOnAllArchitectures(t *testing.T) {
	// No workload should demand more than ~115% of TDP at the all-core
	// turbo point (packages are designed so all-core turbo is near TDP).
	for _, s := range archSpecs() {
		for name, p := range map[string]ops.Profile{"compute": computeBound(), "memory": memoryBound()} {
			d := Analyze(s, p, 0).Demand()
			if d.PowerWatts > 1.5*s.TDPWatts {
				t.Errorf("%s/%s: demand %v W wildly above TDP %v", s.Name, name, d.PowerWatts, s.TDPWatts)
			}
			if d.PowerWatts < s.UncoreWatts {
				t.Errorf("%s/%s: demand %v W below uncore floor", s.Name, name, d.PowerWatts)
			}
		}
	}
}

func TestGovernorHonorsFloorOnAllArchitectures(t *testing.T) {
	for _, s := range archSpecs() {
		e := Analyze(s, computeBound(), 0)
		r := e.UnderCap(1) // absurd cap -> clamped to floor, freq at ladder min
		if r.CapWatts != s.MinCapWatts {
			t.Errorf("%s: cap clamped to %v, want %v", s.Name, r.CapWatts, s.MinCapWatts)
		}
		if math.Abs(r.FreqGHz-s.MinGHz) > s.StepGHz+1e-9 && r.PowerWatts > s.MinCapWatts {
			t.Errorf("%s: floor run at %v GHz exceeds cap %v with %v W", s.Name, r.FreqGHz, s.MinCapWatts, r.PowerWatts)
		}
	}
}

// TestUnderCapPicksHighestFittingRung holds UnderCap's ascending walk to
// the descending search over FreqLadder it replaced: the same rung, bit
// for bit, at every cap from below the floor to above TDP.
func TestUnderCapPicksHighestFittingRung(t *testing.T) {
	for _, s := range archSpecs() {
		for name, p := range map[string]ops.Profile{"compute": computeBound(), "memory": memoryBound()} {
			e := Analyze(s, p, 0)
			ladder := s.FreqLadder()
			for c := s.MinCapWatts - 5; c <= s.TDPWatts+20; c += 0.25 {
				want := ladder[0]
				for i := len(ladder) - 1; i >= 0; i-- {
					if e.PowerAt(ladder[i]) <= math.Max(c, s.MinCapWatts) {
						want = ladder[i]
						break
					}
				}
				if got := e.UnderCap(c).FreqGHz; got != want {
					t.Fatalf("%s/%s at %.2f W: UnderCap picks %v GHz, the descending search %v", s.Name, name, c, got, want)
				}
			}
		}
	}
}

func TestHighBandwidthArchFlattensLessForMemoryBound(t *testing.T) {
	// On the KNL-like spec, the memory-bound profile's stall time shrinks
	// (7x the bandwidth), so its runtime becomes more frequency-sensitive
	// in relative terms.
	bdw := Analyze(BroadwellEP(), memoryBound(), 0)
	knl := Analyze(KNLLike(), memoryBound(), 0)
	bdwRatio := bdw.TimeAt(bdw.Spec.MinGHz) / bdw.TimeAt(bdw.Spec.AllCoreTurboGHz)
	knlRatio := knl.TimeAt(knl.Spec.MinGHz) / knl.TimeAt(knl.Spec.AllCoreTurboGHz)
	// Compare per relative frequency span.
	bdwSpan := bdw.Spec.AllCoreTurboGHz / bdw.Spec.MinGHz
	knlSpan := knl.Spec.AllCoreTurboGHz / knl.Spec.MinGHz
	if (knlRatio-1)/(knlSpan-1) < (bdwRatio-1)/(bdwSpan-1) {
		t.Errorf("memory-bound work should be relatively more frequency-sensitive on the high-BW arch: knl %.3f vs bdw %.3f",
			(knlRatio-1)/(knlSpan-1), (bdwRatio-1)/(bdwSpan-1))
	}
}
