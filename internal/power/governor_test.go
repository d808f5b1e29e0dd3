package power

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/sim/clover"
	"repro/internal/telemetry"
	"repro/internal/viz"
	"repro/internal/viz/contour"
	"repro/internal/viz/threshold"
)

// mixedSegments is the canonical alternating workload: a hot
// compute-bound phase and a cold bandwidth-bound phase, cycles times.
func mixedSegments(cycles int) []Segment {
	hot := computeExec()
	cold := memoryExec()
	segs := make([]Segment, 0, 2*cycles)
	for i := 0; i < cycles; i++ {
		segs = append(segs, Segment{Label: "hot", Exec: hot}, Segment{Label: "cold", Exec: cold})
	}
	return segs
}

func govern(t *testing.T, segs []Segment, target float64) Result {
	t.Helper()
	g, err := New(newRAPL(), Options{TargetWatts: target, IntervalSec: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.RunSegments(segs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestGovernorClassifiesPhasesOnline(t *testing.T) {
	res := govern(t, mixedSegments(6), 65)
	var lastHot, lastCold PhaseReport
	for _, p := range res.Phases {
		if p.Label == "hot" {
			lastHot = p
		} else {
			lastCold = p
		}
	}
	if lastHot.Class != core.PowerSensitive {
		t.Errorf("hot phase classified %v (score %.2f)", lastHot.Class, lastHot.Score)
	}
	if lastCold.Class != core.PowerOpportunity {
		t.Errorf("cold phase classified %v (score %.2f)", lastCold.Class, lastCold.Score)
	}
}

func TestGovernorTracksTarget(t *testing.T) {
	target := 65.0
	res := govern(t, mixedSegments(8), target)
	if math.Abs(res.AvgPowerWatts-target) > 0.02*target {
		t.Errorf("achieved average %.2f W, want within 2%% of %.0f W", res.AvgPowerWatts, target)
	}
}

func TestGovernorClassDemand(t *testing.T) {
	res := govern(t, mixedSegments(6), 65)
	demand := res.ClassDemand()
	hotW, ok := demand[core.PowerSensitive]
	if !ok {
		t.Fatal("no sensitive-class demand measured")
	}
	coldW, ok := demand[core.PowerOpportunity]
	if !ok {
		t.Fatal("no opportunity-class demand measured")
	}
	// The measured demands must bracket the synthetic phases' true
	// demands (95.1 W and 58.9 W) well apart from each other.
	if hotW <= coldW+10 {
		t.Errorf("class demands not separated: sensitive %.1f W, opportunity %.1f W", hotW, coldW)
	}
	if coldW > 65 {
		t.Errorf("opportunity demand %.1f W above the cold phase's draw", coldW)
	}
}

func newGovernedPipeline(t *testing.T, workers int) *core.Pipeline {
	t.Helper()
	sim, err := clover.New(12, clover.Options{})
	if err != nil {
		t.Fatal(err)
	}
	filters := []viz.Filter{
		contour.New(contour.Options{Field: "energy", NumIsovalues: 3}),
		threshold.New(threshold.Options{Field: "energy"}),
	}
	pool := par.NewPool(workers)
	tr := telemetry.New(workers)
	pool.Instrument(tr)
	pipe, err := core.NewPipeline(sim, filters, 5, pool, cpu.BroadwellEP())
	if err != nil {
		t.Fatal(err)
	}
	pipe.Tracer = tr
	return pipe
}

func TestGovernorRunRealPipeline(t *testing.T) {
	pipe := newGovernedPipeline(t, 2)
	g, err := New(newRAPL(), Options{TargetWatts: 65})
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Run(pipe, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 4 || len(res.Segments) != 4 {
		t.Fatalf("2 cycles produced %d phases, %d segments", len(res.Phases), len(res.Segments))
	}
	wantLabels := []string{"simulate", "visualize", "simulate", "visualize"}
	for i, p := range res.Phases {
		if p.Label != wantLabels[i] {
			t.Errorf("phase %d labeled %q, want %q", i, p.Label, wantLabels[i])
		}
		if p.TimeSec <= 0 || p.WallSec <= 0 {
			t.Errorf("phase %d has no time: %+v", i, p)
		}
		if p.SelfTimeSec <= 0 {
			t.Errorf("phase %d captured no trace self time", i)
		}
	}
	if pipe.Cycle() != 2 {
		t.Errorf("pipeline advanced %d cycles, want 2", pipe.Cycle())
	}
	spec := cpu.BroadwellEP()
	if res.FinalCapWatts < spec.MinCapWatts || res.FinalCapWatts > spec.TDPWatts {
		t.Errorf("final cap %.1f W outside the enforceable range", res.FinalCapWatts)
	}
	if res.AvgPowerWatts > 65*(1+0.02) {
		t.Errorf("governed pipeline averaged %.2f W over a 65 W target", res.AvgPowerWatts)
	}
}

// failOnRun is a filter whose nth Run fails.
type failOnRun struct{ n, runs int }

func (f *failOnRun) Name() string { return "failing" }

func (f *failOnRun) Run(*mesh.UniformGrid, *viz.Exec) (*viz.Result, error) {
	if f.runs++; f.runs == f.n {
		return nil, errors.New("injected filter failure")
	}
	return &viz.Result{}, nil
}

// TestGovernorRunPartialOnPipelineError: a pipeline error mid-run still
// leaves the phases that completed governed, returned with the error.
func TestGovernorRunPartialOnPipelineError(t *testing.T) {
	pipe := newGovernedPipeline(t, 1)
	pipe.Filters = append(pipe.Filters, &failOnRun{n: 2})
	g, err := New(newRAPL(), Options{TargetWatts: 65})
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Run(pipe, 3)
	if err == nil || !strings.Contains(err.Error(), "injected filter failure") {
		t.Fatalf("err = %v, want the filter's failure", err)
	}
	want := []string{"simulate", "visualize", "simulate"}
	if len(res.Phases) != len(want) || len(res.Segments) != len(want) {
		t.Fatalf("governed %d phases, %d segments; want %d", len(res.Phases), len(res.Segments), len(want))
	}
	for i, p := range res.Phases {
		if p.Label != want[i] || p.TimeSec <= 0 {
			t.Errorf("phase %d: %q %.6fs, want a governed %q", i, p.Label, p.TimeSec, want[i])
		}
	}
}

func TestGovernorSegmentsReplayMatchesRun(t *testing.T) {
	// Governing a live run's segments again at the same target through a
	// fresh governor must reproduce the live run bit for bit — every
	// total, PhaseReport, Decision and Sample — because each segment
	// carries the live signals captured around its phase. The sweep
	// harness governs one recording under every budget on this property.
	pipe := newGovernedPipeline(t, 2)
	g, err := New(newRAPL(), Options{TargetWatts: 65})
	if err != nil {
		t.Fatal(err)
	}
	live, err := g.Run(pipe, 2)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := New(newRAPL(), Options{TargetWatts: 65})
	if err != nil {
		t.Fatal(err)
	}
	replay, err := g2.RunSegments(live.Segments)
	if err != nil {
		t.Fatal(err)
	}
	var want, got strings.Builder
	dumpResult(&want, "live", live)
	dumpResult(&got, "live", replay)
	wantLines, gotLines := strings.Split(want.String(), "\n"), strings.Split(got.String(), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("replay dump has %d lines, live %d", len(gotLines), len(wantLines))
	}
	for i := range wantLines {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("replay diverged at line %d:\n got  %s\n want %s", i+1, gotLines[i], wantLines[i])
		}
	}
	if !reflect.DeepEqual(replay.Segments, live.Segments) {
		t.Error("replay's segments differ from the live run's")
	}
	if live.Phases[0].WallSec <= 0 || live.Phases[0].TraceHi <= live.Phases[0].TraceLo {
		t.Errorf("live phase carries no capture: %+v", live.Phases[0].Capture)
	}
}
