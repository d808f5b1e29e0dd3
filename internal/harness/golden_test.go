package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/ops"
	"repro/internal/par"
	"repro/internal/study"
	"repro/internal/viz"
)

// TestGoldenArtifacts is the "same numbers" gate simplicity changes rely
// on: the deterministic artifacts of the demonstration-scale campaign
// (`vizpower all -quick -sizes 16,32 -phase-size 32`, two workers) must
// stay byte-identical to testdata/golden. Those files were written at
// commit d1fae6d, before the artifact table existed, by calling the
// exported Phase*/RunAll/RunsBySize/BackendCompare producers and the
// Table*/Fig*/SeriesCSV formatters on this configuration; a change that
// moves a number on purpose regenerates them from Artifact.Render.
//
// The same campaign's measured half is pinned beside them: every
// (algorithm, size) cell it executed, one line per counter of each of its
// profiles, traditional and DPP (testdata/cells.txt, see measuredCells),
// so a change to a kernel's accounting shows as the lines naming that
// kernel and counter.
//
// A third input is the study-default 64^3 cell set (testdata/cells64.txt):
// the measured cells of RunAll(64) and BackendCompare(64), plus a SHA-256
// of every field of the 64^3 data set, which a one-ulp change anywhere in
// the hydro proxy moves even when the 32^3 campaign's numbers survive it.
func TestGoldenArtifacts(t *testing.T) {
	c := goldenConfig()
	compared := 0
	for _, a := range Artifacts {
		if a.Name == "govern" {
			// Run-dependent: the governed runs' times and average watts
			// follow the host's wall clock.
			continue
		}
		outs, err := a.Render(c)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		for _, o := range outs {
			if strings.HasSuffix(o.File, ".svg") {
				// Layout and title text, not numbers: the figure's series
				// are pinned by its CSV.
				continue
			}
			want, err := os.ReadFile(filepath.Join("testdata", "golden", o.File))
			if err != nil {
				t.Fatal(err)
			}
			if o.Content != string(want) {
				t.Errorf("%s differs from the golden file:\n--- got\n%s--- want\n%s", o.File, o.Content, want)
			}
			compared++
		}
	}
	if entries, err := os.ReadDir(filepath.Join("testdata", "golden")); err != nil || len(entries) != compared {
		t.Errorf("compared %d artifacts, testdata/golden holds %d (%v)", compared, len(entries), err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "cells.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := measuredCells(c); got != string(want) {
		t.Errorf("measured cells differ from testdata/cells.txt:\n--- got\n%s--- want\n%s", got, want)
	}
	if fs := c.Failures(); len(fs) != 0 {
		t.Errorf("golden campaign degraded: %v", fs)
	}
	if !testing.Short() && !raceDetector {
		requireCells64(t)
	}
}

// goldenConfig is the demonstration-scale campaign the golden files hold:
// `vizpower all -quick -sizes 16,32 -phase-size 32` on two workers.
func goldenConfig() *Config {
	return (&Config{
		Pool: par.NewPool(2), Sizes: []int{16, 32}, PhaseSize: 32,
		Images: 10, ImageSize: 64, Particles: 256, ParticleSteps: 300,
		SimTime: 0.05, MaxSimSize: 32,
	}).Defaults()
}

// TestModelInputIsTheCell: the model reads nothing of a measurement but
// what study.Cell carries. Every cell the golden campaign measured (under
// a tracer, so Stages is filled in too), written as JSON and read back,
// is the same cell and prices — its DPP half included — exactly as the
// run the campaign priced in memory.
func TestModelInputIsTheCell(t *testing.T) {
	c := goldenConfig()
	c.Tracer = obs.NewTracer()
	for _, a := range Artifacts {
		if a.Name == "govern" {
			continue
		}
		if _, err := a.Render(c); err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
	}
	runs := cached[*study.Run](c)
	if len(runs) != 11 {
		t.Fatalf("the golden campaign measured %d cells, want 11", len(runs))
	}
	for _, r := range runs {
		data, err := json.Marshal(r.Cell)
		if err != nil {
			t.Fatal(err)
		}
		var cell study.Cell
		if err := json.Unmarshal(data, &cell); err != nil {
			t.Fatal(err)
		}
		if len(cell.Stages) == 0 {
			t.Errorf("%s at %d^3: the record carries no stage summary", r.Name, r.Size)
		}
		got := study.Price(&cell, c.Caps)
		if !reflect.DeepEqual(got, r) {
			t.Errorf("%s at %d^3: the cell read back prices differently from the one measured", r.Name, r.Size)
		}
		mine, want := study.BackendPairs([]*study.Run{got}, c.Caps), study.BackendPairs([]*study.Run{r}, c.Caps)
		if len(mine) != len(want) || len(mine) == 1 && !reflect.DeepEqual(mine[0].DPP, want[0].DPP) {
			t.Errorf("%s at %d^3: the cell read back prices its DPP profile differently", r.Name, r.Size)
		}
	}
}

// requireCells64 runs the eight algorithms at 64^3 under the study
// defaults on two workers, and contour and threshold under both
// backends, and compares their measured cells and the data set's field
// hashes with testdata/cells64.txt.
func requireCells64(t *testing.T) {
	t.Helper()
	c := (&Config{Pool: par.NewPool(2)}).Defaults()
	defer c.Pool.Close()
	if _, err := c.RunAll(64); err != nil {
		t.Fatal(err)
	}
	if _, err := c.BackendCompare(64); err != nil {
		t.Fatal(err)
	}
	g, err := c.Dataset(64)
	if err != nil {
		t.Fatal(err)
	}
	got := measuredCells(c) + datasetHashes(64, g)
	want, err := os.ReadFile(filepath.Join("testdata", "cells64.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("64^3 cells differ from testdata/cells64.txt:\n--- got\n%s--- want\n%s", got, want)
	}
	if fs := c.Failures(); len(fs) != 0 {
		t.Errorf("64^3 cells degraded: %v", fs)
	}
}

// measuredCells lists what c measured: for each executed (algorithm,
// size) cell, its element count and every ops.Profile counter, one "name
// size backend counter value" line each, ordered by cell; a cell that
// carries a DPP profile lists it after its traditional one.
func measuredCells(c *Config) string {
	runs := cached[*study.Run](c)
	sort.Slice(runs, func(i, j int) bool {
		a, b := runs[i], runs[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Size < b.Size
	})
	var b strings.Builder
	for _, r := range runs {
		for _, backend := range []viz.Backend{viz.Traditional, viz.DPP} {
			p := r.Profile
			if backend == viz.DPP {
				if r.DPP == (ops.Profile{}) {
					continue
				}
				p = r.DPP
			}
			row := func(counter string, v uint64) {
				fmt.Fprintf(&b, "%-20s %4d %-5s %-24s %d\n", r.Name, r.Size, backend, counter, v)
			}
			row("Elements", uint64(r.Elements))
			pv := reflect.ValueOf(p)
			for i := 0; i < pv.NumField(); i++ {
				name, f := pv.Type().Field(i).Name, pv.Field(i)
				if f.Kind() != reflect.Array {
					row(name, f.Uint())
					continue
				}
				for k := 0; k < f.Len(); k++ {
					row(fmt.Sprintf("%s[%s]", name, ops.Pattern(k)), f.Index(k).Uint())
				}
			}
		}
	}
	return b.String()
}
