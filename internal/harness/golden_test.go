package harness

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/par"
)

// TestGoldenArtifacts is the "same numbers" gate simplicity changes rely
// on: the deterministic artifacts of the demonstration-scale campaign
// (`vizpower all -quick -sizes 16,32 -phase-size 32`, two workers) must
// stay byte-identical to testdata/golden. Those files were written at
// commit d1fae6d, before the artifact table existed, by calling the
// exported Phase*/RunAll/RunsBySize/BackendCompare producers and the
// Table*/Fig*/SeriesCSV formatters on this configuration; a change that
// moves a number on purpose regenerates them from Artifact.Render.
func TestGoldenArtifacts(t *testing.T) {
	c := (&Config{
		Pool: par.NewPool(2), Sizes: []int{16, 32}, PhaseSize: 32,
		Images: 10, ImageSize: 64, Particles: 256, ParticleSteps: 300,
		SimTime: 0.05, MaxSimSize: 32,
	}).Defaults()
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
	if fs := c.Failures(); len(fs) != 0 {
		t.Errorf("golden campaign degraded: %v", fs)
	}
}
