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
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sim/clover"
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
	if lastHot.Class != metrics.PowerSensitive {
		t.Errorf("hot phase classified %v (score %.2f)", lastHot.Class, lastHot.Score)
	}
	if lastCold.Class != metrics.PowerOpportunity {
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
	hotW, ok := demand[metrics.PowerSensitive]
	if !ok {
		t.Fatal("no sensitive-class demand measured")
	}
	coldW, ok := demand[metrics.PowerOpportunity]
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
	tr := obs.NewTracer()
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
		if p.SelfTimeSec() <= 0 {
			t.Errorf("phase %d captured no trace self time", i)
		}
	}
	// The governed two cycles of 5 steps advanced the hydro 10 steps.
	ref, err := clover.New(12, clover.Options{})
	if err != nil {
		t.Fatal(err)
	}
	refPool := par.NewPool(1)
	defer refPool.Close()
	for i := 0; i < 10; i++ {
		ref.Step(refPool, nil)
	}
	if pipe.Sim.Time() != ref.Time() {
		t.Errorf("sim time after the governed run = %v, want %v (10 steps)", pipe.Sim.Time(), ref.Time())
	}
	spec := cpu.BroadwellEP()
	if res.FinalCapWatts < spec.MinCapWatts || res.FinalCapWatts > spec.TDPWatts {
		t.Errorf("final cap %.1f W outside the enforceable range", res.FinalCapWatts)
	}
	if res.AvgPowerWatts > 65*(1+0.02) {
		t.Errorf("governed pipeline averaged %.2f W over a 65 W target", res.AvgPowerWatts)
	}
}

// TestUniformCapAlternatesSegments: a nil-table run of a real pipeline
// is the one fixed cap trace and profile meter under — every phase
// starts and ends at the target, the phases alternate simulate and
// visualize, and the timeline restarts at each phase boundary, so every
// sample belongs to one phase and the samples carry the run's joules.
func TestUniformCapAlternatesSegments(t *testing.T) {
	pipe := newGovernedPipeline(t, 2)
	g, err := NewTable(newRAPL(), Options{TargetWatts: 80, IntervalSec: 0.001}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Run(pipe, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 4 {
		t.Fatalf("phases = %d, want 4 (2 cycles x sim+viz)", len(res.Phases))
	}
	ticks := 0
	for i, p := range res.Phases {
		if want := []string{"simulate", "visualize"}[i%2]; p.Label != want {
			t.Errorf("phase %d labeled %q, want %q", i, p.Label, want)
		}
		if p.CapStartWatts != 80 || p.CapEndWatts != 80 {
			t.Errorf("phase %d ran under %.1f → %.1f W, want the one 80 W cap", i, p.CapStartWatts, p.CapEndWatts)
		}
		ticks += p.Ticks
	}
	if len(res.Samples) != ticks || res.SamplesDropped != 0 {
		t.Errorf("%d samples (%d dropped) over %d phase ticks", len(res.Samples), res.SamplesDropped, ticks)
	}
	var sampled float64
	for _, s := range res.Samples {
		sampled += s.EnergyJ
	}
	if math.Abs(sampled-res.EnergyJ) > 0.02*res.EnergyJ+0.01 {
		t.Errorf("sampled energy %v vs governed %v", sampled, res.EnergyJ)
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
	if live.Phases[0].WallSec <= 0 || len(live.Phases[0].Stages) == 0 {
		t.Errorf("live phase carries no capture: %+v", live.Phases[0].Capture)
	}
}
