package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/ops"
	"repro/internal/par"
	"repro/internal/render"
	"repro/internal/viz"
)

// profileLines formats p as measuredCells does: one "label counter
// value" line per ops.Profile counter.
func profileLines(b *strings.Builder, label string, p ops.Profile) {
	v := reflect.ValueOf(p)
	for i := 0; i < v.NumField(); i++ {
		name, f := v.Type().Field(i).Name, v.Field(i)
		if f.Kind() != reflect.Array {
			fmt.Fprintf(b, "%-34s %-24s %d\n", label, name, f.Uint())
			continue
		}
		for k := 0; k < f.Len(); k++ {
			fmt.Fprintf(b, "%-34s %-24s %d\n", label, fmt.Sprintf("%s[%s]", name, ops.Pattern(k)), f.Index(k).Uint())
		}
	}
}

// TestProfilePins pins the operation profiles no golden file holds
// (testdata/profiles.txt): the extension filters' cells at 32^3, two in
// situ hydro cycles at 16^3, dist.Advect's merged profile at 2 and 4
// ranks in both integration modes, dist.VolumeRender's per-rank
// profiles at 2 ranks, and one served frame (build included) of each
// image workload. Every one is a pure function of its inputs, so a
// change to a kernel's accounting shows as the lines naming it.
func TestProfilePins(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the extended filters at 32^3")
	}
	c := (&Config{
		Pool: par.NewPool(2), Sizes: []int{16, 32}, PhaseSize: 32,
		Images: 10, ImageSize: 64, Particles: 256, ParticleSteps: 300,
		SimTime: 0.05, MaxSimSize: 32,
	}).Defaults()
	defer c.Pool.Close()
	var b strings.Builder

	runs, err := c.RunAllExtended(32)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		if r.Name == "Gradient" || r.Name == "Histogram" {
			fmt.Fprintf(&b, "%-34s %-24s %d\n", r.Name+" 32", "Elements", r.Elements)
			profileLines(&b, r.Name+" 32", r.Profile)
		}
	}

	pipe, err := c.InSitu(16, c.ExtendedFilters())
	if err != nil {
		t.Fatal(err)
	}
	for cycle := 0; cycle < 2; cycle++ {
		ph, err := pipe.Simulate()
		if err != nil {
			t.Fatal(err)
		}
		profileLines(&b, fmt.Sprintf("Simulate 16 cycle %d", cycle), ph.Profile)
	}

	g, err := c.Dataset(16)
	if err != nil {
		t.Fatal(err)
	}
	for _, adaptive := range []bool{false, true} {
		for _, ranks := range []int{2, 4} {
			res, err := dist.Advect(g, c.advectDistFilter(adaptive), ranks, dist.AdvectOptions{})
			if err != nil {
				t.Fatal(err)
			}
			profileLines(&b, fmt.Sprintf("%s 16 ranks=%d", advectName(adaptive), ranks), res.Profile)
		}
	}

	cam, _ := render.OrbitView(g.Bounds(), 3, 10)
	_, ranks, err := dist.VolumeRender(g, "energy", 2, cam, 32, 32, c.Pool)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ranks {
		profileLines(&b, fmt.Sprintf("dist.VolumeRender 16 rank %d", r.Rank), r.Profile)
	}

	for _, name := range []string{"Ray Tracing", "Volume Rendering"} {
		ex := viz.NewExec(c.Pool)
		frame, err := Frames(g, name, 0.25, ex)
		if err != nil {
			t.Fatal(err)
		}
		frame(nil, cam, 32, 32, ex)
		profileLines(&b, name+" 16 frame", ex.Drain())
	}

	want, err := os.ReadFile(filepath.Join("testdata", "profiles.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("profiles differ from testdata/profiles.txt:\n--- got\n%s--- want\n%s", got, want)
	}
}

// TestGoldenCellsOneWorker runs the golden campaign's measured cells on
// one worker: testdata/cells.txt was recorded on two, and no counter may
// depend on how the loops were chunked across workers.
func TestGoldenCellsOneWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the golden campaign")
	}
	c := (&Config{
		Pool: par.NewPool(1), Sizes: []int{16, 32}, PhaseSize: 32,
		Images: 10, ImageSize: 64, Particles: 256, ParticleSteps: 300,
		SimTime: 0.05, MaxSimSize: 32,
	}).Defaults()
	defer c.Pool.Close()
	for _, a := range Artifacts {
		if a.Name == "govern" {
			continue
		}
		if _, err := a.Render(c); err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "cells.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := measuredCells(c); got != string(want) {
		t.Errorf("one-worker cells differ from testdata/cells.txt:\n--- got\n%s--- want\n%s", got, want)
	}
}
