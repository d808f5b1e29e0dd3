package harness

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/par"
	"repro/internal/study"
)

// TestCalibrationReport128 prints the paper-scale Phase 1/2 artifacts at
// 128³ for model calibration. It is opt-in (set VIZPOWER_CALIBRATE=1)
// because it runs the full-size workloads; EXPERIMENTS.md records its
// output against the paper.
func TestCalibrationReport128(t *testing.T) {
	if os.Getenv("VIZPOWER_CALIBRATE") == "" {
		t.Skip("set VIZPOWER_CALIBRATE=1 to run the 128^3 calibration report")
	}
	c := (&Config{
		Pool:  par.Default(),
		Sizes: []int{32, 64, 128}, PhaseSize: 128,
	}).Defaults()
	run1, err := c.Phase1()
	if err != nil {
		t.Fatal(err)
	}
	fmt.Println(study.Table1(run1, c.Caps))
	runs, err := c.Phase2()
	if err != nil {
		t.Fatal(err)
	}
	fmt.Println(study.Table2(runs, c.Caps))
	fmt.Println(study.DemandTable(runs))
	bySize, err := c.RunsBySize("Slice")
	if err != nil {
		t.Fatal(err)
	}
	fmt.Println(study.FormatSeries("Fig 4 — Slice IPC by size", "cap (W)", study.FigIPCBySize(bySize, c.SortedSizes(), c.Caps)))
}
