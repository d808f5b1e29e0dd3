package harness

import (
	"bytes"
	"errors"
	"regexp"
	"strings"
	"testing"

	"repro/internal/par"
	"repro/internal/telemetry"
)

// TestHeartbeatLines: a configured Heartbeat writer receives one
// "cell i/N ... done in Xs" line per executed cell, with the cell
// counter advancing across runs.
func TestHeartbeatLines(t *testing.T) {
	c := tinyConfig()
	var hb bytes.Buffer
	c.Heartbeat = &hb

	f, err := c.FilterByName("Contour")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(f, 8); err != nil {
		t.Fatal(err)
	}
	f2, err := c.FilterByName("Threshold")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(f2, 8); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(hb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("heartbeat wrote %d lines, want 2:\n%s", len(lines), hb.String())
	}
	// tinyConfig: 8 algorithms x 2 sizes = 16 cells.
	want := []*regexp.Regexp{
		regexp.MustCompile(`^cell 1/16 \(Contour, 8\^3, ranks=1, 9 caps\) done in \d+\.\d+s$`),
		regexp.MustCompile(`^cell 2/16 \(Threshold, 8\^3, ranks=1, 9 caps\) done in \d+\.\d+s$`),
	}
	for i, re := range want {
		if !re.MatchString(lines[i]) {
			t.Errorf("heartbeat line %d = %q, want match for %s", i, lines[i], re)
		}
	}
}

// TestHeartbeatReportsFailure: a cell that exhausts its attempts emits a
// FAILED heartbeat line instead of a completion line.
func TestHeartbeatFailedCell(t *testing.T) {
	c := tinyConfig()
	var hb bytes.Buffer
	c.Heartbeat = &hb
	c.Inject = func(name string, size, attempt int) error {
		return errors.New("boom") // non-transient: no retries
	}
	f, err := c.FilterByName("Slice")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(f, 8); err == nil {
		t.Fatal("injected failure did not propagate")
	}
	got := strings.TrimSpace(hb.String())
	re := regexp.MustCompile(`^cell 1/16 \(Slice, 8\^3, ranks=1, 9 caps\) FAILED after 1 attempt\(s\): .*boom`)
	if !re.MatchString(got) {
		t.Errorf("failure heartbeat = %q, want match for %s", got, re)
	}
}

// TestRunRecordsWallAndStages: with a Tracer configured, each AlgoRun
// carries its measured wall clock and a per-stage self-time breakdown
// whose top entry is the cell span itself.
func TestRunRecordsWallAndStages(t *testing.T) {
	c := tinyConfig()
	c.Pool = par.NewPool(2)
	tr := telemetry.New(c.Pool.Workers())
	c.Pool.Instrument(tr)
	c.Tracer = tr

	f, err := c.FilterByName("Contour")
	if err != nil {
		t.Fatal(err)
	}
	run, err := c.Run(f, 8)
	if err != nil {
		t.Fatal(err)
	}
	if run.WallSec <= 0 {
		t.Errorf("WallSec = %v, want > 0", run.WallSec)
	}
	if len(run.Stages) == 0 {
		t.Fatal("no stage attribution recorded under tracer")
	}
	names := map[string]bool{}
	for _, st := range run.Stages {
		names[st.Name] = true
		if st.Count <= 0 || st.TotalNs <= 0 {
			t.Errorf("degenerate stage stat %+v", st)
		}
	}
	if !names["Contour/8^3"] {
		t.Errorf("stages %v missing the cell span Contour/8^3", names)
	}
	if !names["par.For"] {
		t.Errorf("stages %v missing nested par.For launches", names)
	}
}

// TestRunWithoutTracerStillTimesCells: WallSec is measured even when no
// tracer is attached; only Stages requires one.
func TestRunWithoutTracerStillTimesCells(t *testing.T) {
	c := tinyConfig()
	f, err := c.FilterByName("Threshold")
	if err != nil {
		t.Fatal(err)
	}
	run, err := c.Run(f, 8)
	if err != nil {
		t.Fatal(err)
	}
	if run.WallSec <= 0 {
		t.Errorf("WallSec = %v, want > 0", run.WallSec)
	}
	if len(run.Stages) != 0 {
		t.Errorf("Stages = %v without a tracer, want empty", run.Stages)
	}
}

// TestReportIncludesCellCost: WriteReport renders the measured-cost
// section from the recorded runs.
func TestReportIncludesCellCost(t *testing.T) {
	c := tinyConfig()
	runs, err := c.RunAll(8)
	if err != nil {
		t.Fatal(err)
	}
	claims, err := c.CheckClaims()
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := c.WriteReport(&b, runs, nil, claims); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "## Measured cell cost") {
		t.Error("report missing the Measured cell cost section")
	}
	if !strings.Contains(out, "Contour 8^3") {
		t.Error("cell cost table missing the Contour 8^3 row")
	}
}
