package harness

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/study"
)

// TestDeclarationCoreSharesNothing: BuildDataset and Execute read the
// declaration and write nothing to it, so four goroutines build and run
// through one Config at once (-race is the oracle, make race runs this),
// get the numbers the single-goroutine shell got, and leave the
// receiver's run state as it was: no cell, no data set but the Preloaded
// one.
func TestDeclarationCoreSharesNothing(t *testing.T) {
	shell := tinyConfig()
	pre, err := shell.Dataset(8)
	if err != nil {
		t.Fatal(err)
	}
	var lines atomic.Int64
	c := tinyConfig()
	c.Tracer = obs.NewTracer()
	c.Progress = func(string) { lines.Add(1) }
	if err := c.Preload(8, pre); err != nil {
		t.Fatal(err)
	}

	// 8 is Preloaded, 16 a hydro run, 24 a resampling of 16.
	sizes := []int{8, 16, 24}
	names := []string{"Contour", "Volume Rendering", "Gradient"}
	// What the single-goroutine shell gets for the same cells.
	type cell struct {
		name string
		size int
	}
	want := map[cell]*study.Run{}
	for _, size := range sizes {
		for _, name := range names {
			f, err := shell.FilterByName(name)
			if err != nil {
				t.Fatal(err)
			}
			if want[cell{name, size}], err = shell.Run(f, size); err != nil {
				t.Fatal(err)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The caller's store: this one keeps nothing.
			var build func(size int) (*mesh.UniformGrid, error)
			build = func(size int) (*mesh.UniformGrid, error) { return c.BuildDataset(size, build) }
			for _, size := range sizes {
				g, err := build(size)
				if err != nil {
					t.Error(err)
					return
				}
				if size == 8 && g != pre {
					t.Errorf("BuildDataset(8) rebuilt the Preloaded grid")
				}
				for _, name := range names {
					f, err := c.FilterByName(name)
					if err != nil {
						t.Error(err)
						return
					}
					got, err := c.Execute(f, g)
					if err != nil {
						t.Error(err)
						return
					}
					if exp := want[cell{name, size}]; got.Size != size ||
						!reflect.DeepEqual(got.Profile, exp.Profile) || !reflect.DeepEqual(study.Price(got, c.Caps).ByCap, exp.ByCap) {
						t.Errorf("%s at %d^3: Execute and Run disagree", name, size)
					}
				}
			}
		}()
	}
	wg.Wait()
	if lines.Load() == 0 {
		t.Error("no progress lines from the core")
	}
	if n := len(c.run.cells); n != 0 || c.run.cellsDone != 0 || len(c.run.failures) != 0 {
		t.Errorf("core wrote run state: %d cells stored, %d done, %d failures", n, c.run.cellsDone, len(c.run.failures))
	}
	if len(c.run.datasets) != 1 || c.run.datasets[8] != pre {
		t.Errorf("data-set map holds %d entries, want only the Preloaded 8^3", len(c.run.datasets))
	}
}
