package harness

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/par"
)

// The stage summaries a traced cell and a traced governor sweep carry:
// every stage name with its span count, sorted by name. Self time and
// the joules split come from the wall clock, so they are not pinned. A
// one-worker pool runs every loop as one serial chunk, so the par.chunks
// count is one per par.For. Contour's par.For count is its row index and
// three loops per isovalue: the keyed emission's count, its fill and the
// seam resolution of the points a layer shares with the one below. Each
// of the governor sweep's two Volume Rendering cycles runs its orbit as one
// ForEach of frame tasks, each frame's pixel For nested in its task.
var (
	executeStagesPin = []string{
		"Contour/16^3 1",
		"par.For 10",
	}
	governStagesPin = []string{
		"Volume Rendering 2",
		"analyze 4",
		"export 2",
		"par.For 124",
		"par.chunks 124",
		"sim.step 20",
		"simulate 2",
	}
)

// TestTracedStageSummariesPinned holds the stage names and span counts
// of a traced Execute cell's Stages and a traced GovernorCompare's
// Attribution at 16^3.
func TestTracedStageSummariesPinned(t *testing.T) {
	c := tinyConfig()
	c.Pool = par.NewPool(1)
	traced(c)
	g, err := c.Dataset(16)
	if err != nil {
		t.Fatal(err)
	}
	f, err := c.FilterByName("Contour")
	if err != nil {
		t.Fatal(err)
	}
	run, err := c.Execute(f, g)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, s := range run.Stages {
		got = append(got, fmt.Sprintf("%s %d", s.Name, s.Count))
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, executeStagesPin) {
		t.Errorf("Execute stages = %q, want %q", got, executeStagesPin)
	}

	gc := governConfig()
	gc.Pool = par.NewPool(1)
	traced(gc)
	res, err := gc.GovernorCompare(16, []float64{55, 65, 75}, 2)
	if err != nil {
		t.Fatal(err)
	}
	got = got[:0]
	for _, r := range res.Attribution {
		got = append(got, fmt.Sprintf("%s %d", r.Stage, r.Count))
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, governStagesPin) {
		t.Errorf("GovernorCompare attribution = %q, want %q", got, governStagesPin)
	}
}
