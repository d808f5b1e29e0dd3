package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/par"
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
	tr := obs.NewTracer()
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

// traced attaches one fresh tracer to c and to c's pool, as the CLI's
// -trace does.
func traced(c *Config) {
	tr := obs.NewTracer()
	c.Pool.Instrument(tr)
	c.Tracer = tr
}

// TestAdvectScalingTracesEveryRank: a traced rank sweep over 1, 2, 4
// and 8 ranks on a 2-worker pool keeps every rank's spans, each rank on
// a track of its own named for it, keeps pool chunks off the rank
// tracks, and counts in Dropped every span it did not keep.
func TestAdvectScalingTracesEveryRank(t *testing.T) {
	c := tinyConfig()
	c.Ranks = []int{1, 2, 4, 8}
	traced(c)
	runs, err := c.AdvectScaling(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != len(c.Ranks) {
		t.Fatalf("got %d runs, want %d", len(runs), len(c.Ranks))
	}
	// Every rank of a run advances its particles once per round.
	wantAdvance := 0
	for _, run := range runs {
		wantAdvance += run.Ranks * run.Rounds
	}

	// The exported trace names each thread: read the spans back by name.
	var b bytes.Buffer
	if err := c.Tracer.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph, Name string
			TID      int
			Args     struct{ Name string }
		}
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	thread := map[int]string{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			thread[ev.TID] = ev.Args.Name
		}
	}
	onThreads := map[string]map[string]bool{} // span name -> thread names
	advance, chunksOnRanks := 0, 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		name := thread[ev.TID]
		if onThreads[ev.Name] == nil {
			onThreads[ev.Name] = map[string]bool{}
		}
		onThreads[ev.Name][name] = true
		if ev.Name == "par.chunks" && strings.HasPrefix(name, "rank ") {
			chunksOnRanks++
		}
		if ev.Name == "advect.advance" {
			advance++
		}
	}
	if chunksOnRanks > 0 {
		t.Errorf("%d par.chunks spans sit on rank tracks", chunksOnRanks)
	}
	ranks := map[string]bool{}
	for r := 0; r < 8; r++ {
		ranks[fmt.Sprintf("rank %d", r)] = true
	}
	for _, op := range []string{"dist.send", "dist.recv", "advect.advance"} {
		if !reflect.DeepEqual(onThreads[op], ranks) {
			t.Errorf("%s spans sit on tracks %v, want rank 0 … rank 7", op, onThreads[op])
		}
	}
	if lost := int64(wantAdvance - advance); lost != c.Tracer.Dropped() {
		t.Errorf("the trace kept %d of %d advect.advance spans, but Dropped() = %d",
			advance, wantAdvance, c.Tracer.Dropped())
	}
}
