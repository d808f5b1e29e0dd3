package harness

import (
	"bytes"
	"errors"
	"regexp"
	"strings"
	"testing"
)

// TestAdvectScaling: the rank sweep runs every configured fabric size
// over the study data set, every cell's gathered streamlines match the
// single-rank oracle bit for bit, cells are cached, the heartbeat
// carries the rank count, and the report gains the scaling section.
func TestAdvectScaling(t *testing.T) {
	c := tinyConfig()
	c.Ranks = []int{1, 2, 4}
	var hb bytes.Buffer
	c.Heartbeat = &hb

	runs, err := c.AdvectScaling(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Fatalf("got %d runs, want 3", len(runs))
	}
	for i, r := range runs {
		if r.Ranks != c.Ranks[i] || r.Size != 8 {
			t.Fatalf("run %d is (%d^3, ranks=%d), want (8^3, ranks=%d)", i, r.Size, r.Ranks, c.Ranks[i])
		}
		if !r.Identical {
			t.Fatalf("ranks=%d: gathered streamlines differ from the single-rank oracle", r.Ranks)
		}
		if r.ParticleSteps <= 0 || r.Rounds < 1 || r.WallSec <= 0 {
			t.Fatalf("ranks=%d: degenerate run %+v", r.Ranks, r)
		}
		if r.Participation <= 0 || r.Participation > 1.0000001 {
			t.Fatalf("ranks=%d: participation %v out of (0, 1]", r.Ranks, r.Participation)
		}
		if len(r.Stats) != r.Ranks {
			t.Fatalf("ranks=%d: %d stat rows", r.Ranks, len(r.Stats))
		}
	}

	re := regexp.MustCompile(`cell \d+/\d+ \(Particle Advection, 8\^3, ranks=2\) done in \d+\.\d+s`)
	if !re.MatchString(hb.String()) {
		t.Errorf("heartbeat %q missing rank-tagged advect cell line", hb.String())
	}

	// Cached: a repeat is the same object.
	again, err := c.AdvectDist(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if again != runs[1] {
		t.Error("AdvectDist did not cache the (8^3, ranks=2) cell")
	}

	var b strings.Builder
	c.writeAdvectDist(&b)
	out := b.String()
	if !strings.Contains(out, "## Distributed advection (parallelize-over-data)") {
		t.Error("report section missing")
	}
	if !strings.Contains(out, "| 8^3 | 4 |") {
		t.Errorf("report section missing the 4-rank row:\n%s", out)
	}
	if strings.Contains(out, "| NO |") {
		t.Errorf("report flags a non-identical cell:\n%s", out)
	}
}

// TestAdvectScalingSkipsOversizedRanks: rank counts beyond the cell
// layers are skipped, not failed.
func TestAdvectScalingSkipsOversizedRanks(t *testing.T) {
	c := tinyConfig()
	c.Ranks = []int{2, 16}
	runs, err := c.AdvectScaling(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].Ranks != 2 {
		t.Fatalf("got %d runs (first ranks=%d), want just ranks=2", len(runs), runs[0].Ranks)
	}
}

// TestAdvectScalingRecordsFailedCell: a rank count that fails while the
// others succeed is recorded as a failed cell — in Failures and in the
// report — instead of silently missing from the table.
func TestAdvectScalingRecordsFailedCell(t *testing.T) {
	c := tinyConfig()
	c.Ranks = []int{1, 2, 4}
	c.Inject = func(name string, size, attempt int) error {
		if strings.Contains(name, "ranks=2") {
			return errors.New("injected rank loss")
		}
		return nil
	}
	runs, err := c.AdvectScaling(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 || runs[0].Ranks != 1 || runs[1].Ranks != 4 {
		t.Fatalf("got %d runs, want ranks 1 and 4", len(runs))
	}
	fs := c.Failures()
	if len(fs) != 1 || fs[0].Name != "Particle Advection ranks=2" || fs[0].Size != 8 {
		t.Fatalf("Failures() = %v, want exactly the ranks=2 cell at 8^3", fs)
	}
	var buf strings.Builder
	if err := c.WriteReport(&buf, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"## Failed configurations", "Particle Advection ranks=2", "injected rank loss",
		"| 8^3 | 1 |", "| 8^3 | 4 |",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if strings.Contains(out, "| 8^3 | 2 |") {
		t.Error("report renders a row for the failed ranks=2 cell")
	}
}

// TestAdvectScalingModeCachesPerMode: the adaptive sweep runs the same
// cells in BS23 mode, checked against its own oracle and cached apart
// from the fixed-step cells.
func TestAdvectScalingModeCachesPerMode(t *testing.T) {
	c := tinyConfig()
	c.Ranks = []int{1, 2}
	fixed, err := c.AdvectScaling(8)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := c.AdvectScalingMode(8, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(fixed) != 2 || len(adaptive) != 2 {
		t.Fatalf("got %d fixed and %d adaptive runs, want 2 and 2", len(fixed), len(adaptive))
	}
	for i := range adaptive {
		if adaptive[i] == fixed[i] || !adaptive[i].Adaptive || fixed[i].Adaptive {
			t.Fatalf("ranks=%d: adaptive and fixed cells share a cache slot", fixed[i].Ranks)
		}
		if !adaptive[i].Identical {
			t.Fatalf("adaptive ranks=%d: streamlines differ from the adaptive oracle", adaptive[i].Ranks)
		}
	}
	again, err := c.AdvectScalingMode(8, true)
	if err != nil {
		t.Fatal(err)
	}
	if again[1] != adaptive[1] {
		t.Error("adaptive cell was not cached")
	}
}
