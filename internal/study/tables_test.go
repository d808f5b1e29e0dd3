package study

import (
	"strings"
	"testing"

	"repro/internal/cpu"
)

// syntheticRun builds a Run with prescribed times/frequencies per cap
// (caps[0] the base) so the table emitters' highlight rule can be checked
// exactly.
func syntheticRun(name string, caps, times, freqs []float64) *Run {
	run := &Run{Cell: Cell{Name: name, Size: 128, Elements: 1 << 21}}
	var byCap []cpu.CapResult
	for i := range caps {
		byCap = append(byCap, cpu.CapResult{
			CapWatts:   caps[i],
			TimeSec:    times[i],
			FreqGHz:    freqs[i],
			PowerWatts: caps[i] * 0.9,
			EnergyJ:    caps[i] * 0.9 * times[i],
			IPC:        1.0,
		})
	}
	run.Priced = fromSweep(byCap)
	return run
}

func TestTable1MarksFirstTenPercent(t *testing.T) {
	caps := []float64{120, 80, 40}
	run := syntheticRun("Contour", caps,
		[]float64{10, 10.5, 11.5}, // 1.00X, 1.05X, 1.15X -> mark at 40
		[]float64{2.6, 2.6, 2.0},  // Fratio 1.0, 1.0, 1.30 -> mark at 40
	)
	tbl := Table1(run, caps)
	lines := strings.Split(strings.TrimSpace(tbl), "\n")
	last := lines[len(lines)-1]
	if !strings.Contains(last, "1.15X*") {
		t.Errorf("40W row should carry the Tratio marker: %q", last)
	}
	if !strings.Contains(last, "1.30X*") {
		t.Errorf("40W row should carry the Fratio marker: %q", last)
	}
	mid := lines[len(lines)-2]
	if strings.Contains(mid, "*") {
		t.Errorf("80W row should carry no marker: %q", mid)
	}
}

func TestSlowdownTableMarksHighestQualifyingCap(t *testing.T) {
	caps := []float64{120, 100, 80, 60, 40}
	run := syntheticRun("Volume Rendering", caps,
		[]float64{10, 10, 11.2, 12.5, 18}, // first >=10% at 80
		[]float64{2.6, 2.6, 2.3, 2.0, 1.4},
	)
	tbl := SlowdownTable("T", []*Run{run}, caps)
	// Exactly one Tratio marker, on the 80W column (1.12X*).
	if strings.Count(tbl, "1.12X*") != 1 {
		t.Errorf("marker missing or duplicated:\n%s", tbl)
	}
	if strings.Contains(tbl, "1.25X*") || strings.Contains(tbl, "1.80X*") {
		t.Errorf("marker appeared past the first qualifying cap:\n%s", tbl)
	}
}

func TestSlowdownTableNoMarkerWhenFlat(t *testing.T) {
	caps := []float64{120, 80, 40}
	run := syntheticRun("Threshold", caps,
		[]float64{10, 10.1, 10.5}, // never reaches 1.10X
		[]float64{2.6, 2.6, 2.5},
	)
	tbl := SlowdownTable("T", []*Run{run}, caps)
	// The Tratio row carries no marker (frequency may still mark).
	for _, line := range strings.Split(tbl, "\n") {
		if strings.Contains(line, "Tratio") && strings.Contains(line, "*") {
			t.Errorf("flat run marked:\n%s", line)
		}
	}
}

func TestFreqSlowdownCapShuffledInput(t *testing.T) {
	// After the 120 W base, caps out of the tables' high->low order: the
	// highlight rule must sort internally rather than trust caller
	// ordering.
	caps := []float64{120, 80, 40, 100, 60}
	run := syntheticRun("Volume Rendering", caps,
		[]float64{10, 11.2, 18, 10, 12.5},
		[]float64{2.6, 2.3, 1.4, 2.6, 2.0},
	)
	if run.SlowF != 80 {
		t.Errorf("SlowF = %v, want 80 (highest cap with Fratio >= 1.10)", run.SlowF)
	}
	// A duplicate entry at the base cap never matches, whatever its freq.
	caps = []float64{120, 120, 100}
	run = syntheticRun("Contour", caps,
		[]float64{10, 10, 10},
		[]float64{2.6, 1.0, 2.5},
	)
	if run.SlowF != 0 {
		t.Errorf("base cap matched the frequency slowdown rule: got %v, want 0", run.SlowF)
	}
}

func TestDemandTableClassBoundary(t *testing.T) {
	caps := []float64{120, 100, 80, 70, 60, 40}
	sensitive := syntheticRun("Hot", caps,
		[]float64{10, 10, 10, 11.2, 12, 15}, // first >=10% at 70 -> sensitive
		[]float64{2.6, 2.6, 2.6, 2.3, 2.1, 1.6},
	)
	opportunity := syntheticRun("Cold", caps,
		[]float64{10, 10, 10, 10, 10.3, 11.2}, // first >=10% at 40 -> opportunity
		[]float64{2.6, 2.6, 2.6, 2.6, 2.5, 2.1},
	)
	tbl := DemandTable([]*Run{sensitive, opportunity})
	for _, line := range strings.Split(tbl, "\n") {
		if strings.HasPrefix(line, "Hot") && !strings.Contains(line, "power sensitive") {
			t.Errorf("Hot misclassified: %q", line)
		}
		if strings.HasPrefix(line, "Cold") && !strings.Contains(line, "power opportunity") {
			t.Errorf("Cold misclassified: %q", line)
		}
	}
}

func TestEnergyTable(t *testing.T) {
	caps := []float64{120, 80, 40}
	run := syntheticRun("Contour", caps,
		[]float64{10, 10, 11},
		[]float64{2.6, 2.6, 2.0},
	)
	tbl := EnergyTable([]*Run{run}, caps)
	if !strings.Contains(tbl, "Energy to solution") || !strings.Contains(tbl, "Contour") {
		t.Fatalf("malformed:\n%s", tbl)
	}
	// First column is the TDP baseline: ratio 1.00.
	if !strings.Contains(tbl, "1.00") {
		t.Errorf("baseline ratio missing:\n%s", tbl)
	}
	// 40 W run: E = 36*11 vs base 108*10 -> 0.37.
	if !strings.Contains(tbl, "0.37") {
		t.Errorf("capped ratio missing:\n%s", tbl)
	}
}
