package study_test

import (
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/harness"
	"repro/internal/par"
	"repro/internal/study"
)

// tinyConfig is a study small enough for unit tests: the arch tests
// price cells the harness measures at it.
func tinyConfig() *harness.Config {
	return (&harness.Config{
		Pool: par.NewPool(2), Sizes: []int{8, 16}, PhaseSize: 16,
		Images: 2, ImageSize: 16, Particles: 27, ParticleSteps: 60,
		Isovalues: 3, SimTime: 0.02, MaxSimSize: 16,
	}).Defaults()
}

func TestArchitecturesList(t *testing.T) {
	specs := study.Architectures()
	if len(specs) != 3 {
		t.Fatalf("architectures = %d, want 3", len(specs))
	}
	if specs[0].Name != cpu.BroadwellEP().Name {
		t.Errorf("first architecture should be the paper's Broadwell, got %q", specs[0].Name)
	}
	for _, s := range specs {
		if s.StepGHz <= 0 || s.MinGHz+s.StepGHz > s.AllCoreTurboGHz+1e-9 {
			t.Errorf("%s: degenerate frequency ladder", s.Name)
		}
		if s.MinCapWatts >= s.TDPWatts {
			t.Errorf("%s: cap floor above TDP", s.Name)
		}
	}
}

func TestCompareArchitectures(t *testing.T) {
	c := tinyConfig()
	rows, err := c.CompareArchitectures("Contour", study.Architectures())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		if len(row.Ratios) != len(study.ArchFractions) {
			t.Fatalf("%s: %d ratios", row.Spec.Name, len(row.Ratios))
		}
		// Tratio at full TDP is 1 and never improves as caps drop.
		if row.Ratios[0].Tratio != 1 {
			t.Errorf("%s: Tratio at TDP = %v", row.Spec.Name, row.Ratios[0].Tratio)
		}
		for i := 1; i < len(row.Ratios); i++ {
			if row.Ratios[i].Tratio < row.Ratios[i-1].Tratio-1e-9 {
				t.Errorf("%s: Tratio not monotone at %v", row.Spec.Name, study.ArchFractions[i])
			}
		}
		if frac := row.Demand.PowerWatts / row.Spec.TDPWatts; frac <= 0 || frac > 1.2 {
			t.Errorf("%s: demand fraction %v", row.Spec.Name, frac)
		}
	}
	tbl := study.ArchTable("Contour", rows)
	if !strings.Contains(tbl, "Broadwell") || !strings.Contains(tbl, "KNL") {
		t.Errorf("table missing architectures:\n%s", tbl)
	}
	if _, err := c.CompareArchitectures("Nope", study.Architectures()); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestArchExtensionShiftsClasses(t *testing.T) {
	// The future-work hypothesis the extension demonstrates: on a
	// machine with ~7x the memory bandwidth (KNL-like), the paper's
	// data-bound algorithms stop being free to cap — their relative
	// first-slowdown point moves to a higher cap fraction (or their 33%
	// slowdown worsens) compared with Broadwell.
	c := tinyConfig()
	rows, err := c.CompareArchitectures("Threshold", []cpu.Spec{cpu.BroadwellEP(), cpu.KNLLike()})
	if err != nil {
		t.Fatal(err)
	}
	bdw, knl := rows[0], rows[1]
	last := len(study.ArchFractions) - 1
	if knl.Ratios[last].Tratio < bdw.Ratios[last].Tratio-1e-9 {
		t.Errorf("deep-cap slowdown on KNL (%v) should be at least Broadwell's (%v): bandwidth removes the memory bottleneck",
			knl.Ratios[last].Tratio, bdw.Ratios[last].Tratio)
	}
}

// TestArchTableDashesClampedCaps: on the EPYC-like spec (TDP 180 W,
// floor 90 W) the 40 % and 33 % fractions are raised to the 90 W floor,
// the 50 % column's cap. Those columns print "—" instead of repeating the
// 50 % result, and so never carry the first-slowdown marker. Broadwell's
// 33 % (39.6 W) is raised to its 40 W floor too, but no other column
// enforces 40 W, so its row prints all eight results.
func TestArchTableDashesClampedCaps(t *testing.T) {
	c := tinyConfig()
	specs := []cpu.Spec{cpu.BroadwellEP(), cpu.EPYCLike()}
	rows, err := c.CompareArchitectures("Particle Advection", specs)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(study.ArchTable("Particle Advection", rows)), "\n")[2:]
	for k, spec := range specs {
		fields := strings.Fields(lines[k])
		cells := fields[len(fields)-len(study.ArchFractions):]
		enforced := func(i int) float64 { return max(study.ArchFractions[i]*spec.TDPWatts, spec.MinCapWatts) }
		for i, frac := range study.ArchFractions {
			repeat := i > 0 && enforced(i) == enforced(i-1)
			if repeat != (cells[i] == "—") {
				t.Errorf("%s at %.0f%% of TDP (repeats the previous cap: %v): cell %q", spec.Name, frac*100, repeat, cells[i])
			}
		}
	}
}
