package core

import (
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sim/clover"
	"repro/internal/viz"
	"repro/internal/viz/contour"
	"repro/internal/viz/threshold"
	"repro/internal/viz/volren"
)

// tracedPipeline builds an instrumented in situ pipeline: the same
// tracer on the Pipeline (stage spans) and the Pool (loop-launch and
// worker spans), including a rendering filter so the trace covers the
// render path.
func tracedPipeline(t *testing.T) (*Pipeline, *obs.Tracer) {
	t.Helper()
	sim, err := clover.New(16, clover.Options{})
	if err != nil {
		t.Fatal(err)
	}
	filters := []viz.Filter{
		contour.New(contour.Options{Field: "energy", NumIsovalues: 3}),
		threshold.New(threshold.Options{Field: "energy"}),
		volren.New(volren.Options{Field: "energy", Images: 2, Width: 24, Height: 24}),
	}
	pool := par.NewPool(2)
	t.Cleanup(pool.Close)
	tr := obs.NewTracer()
	pool.Instrument(tr)
	p, err := NewPipeline(sim, filters, 4, pool, cpu.BroadwellEP())
	if err != nil {
		t.Fatal(err)
	}
	p.Tracer = tr
	return p, tr
}

// TestPipelineSpanCoverage is the telemetry acceptance check: the
// top-level pipeline-track stage spans (simulate, export, each filter,
// analyze) must account for the measured wall clock of the cycles to
// within 5% — nothing the pipeline does may be invisible to the trace.
func TestPipelineSpanCoverage(t *testing.T) {
	p, tr := tracedPipeline(t)
	const cycles = 3
	t0 := time.Now()
	for i := 0; i < cycles; i++ {
		if _, err := p.RunCycle(); err != nil {
			t.Fatal(err)
		}
	}
	wall := time.Since(t0).Nanoseconds()

	// Sum top-level pipeline spans: those not contained in another
	// pipeline span (parent-before-child order makes this a single scan).
	var sum, coveredEnd int64
	stageNames := map[string]bool{}
	for _, s := range tr.Spans() {
		if s.Track != obs.Pipeline {
			continue
		}
		if s.Start >= coveredEnd { // top-level: not inside the previous top span
			sum += s.Dur
			coveredEnd = s.End()
			stageNames[s.Name] = true
		}
	}
	for _, want := range []string{"simulate", "export", "Contour", "Threshold", "Volume Rendering", "analyze"} {
		if !stageNames[want] {
			t.Errorf("no top-level %q stage span", want)
		}
	}
	if wall <= 0 {
		t.Fatal("zero wall clock")
	}
	ratio := float64(sum) / float64(wall)
	if ratio < 0.95 || ratio > 1.0+1e-3 {
		t.Errorf("stage spans cover %.1f%% of wall clock, want within 5%% (sum %dns, wall %dns)",
			100*ratio, sum, wall)
	}
	if tr.Dropped() != 0 {
		t.Errorf("dropped %d spans", tr.Dropped())
	}
}

// TestPipelineSpanNesting: each cycle's sim.step spans nest inside
// simulate, and pool launch spans nest inside stage spans — the
// structure Perfetto renders as a flame graph.
func TestPipelineSpanNesting(t *testing.T) {
	p, tr := tracedPipeline(t)
	if _, err := p.RunCycle(); err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	var simulate []obs.Span
	for _, s := range spans {
		if s.Name == "simulate" {
			simulate = append(simulate, s)
		}
	}
	if len(simulate) != 1 {
		t.Fatalf("found %d simulate spans, want 1", len(simulate))
	}
	var steps, launches int
	for _, s := range spans {
		switch s.Name {
		case "sim.step":
			steps++
			if s.Start < simulate[0].Start || s.End() > simulate[0].End() {
				t.Errorf("sim.step [%d,%d) outside simulate [%d,%d)",
					s.Start, s.End(), simulate[0].Start, simulate[0].End())
			}
		case "par.For":
			launches++
		}
	}
	if steps != p.StepsPerCycle {
		t.Errorf("recorded %d sim.step spans, want %d", steps, p.StepsPerCycle)
	}
	if launches == 0 {
		t.Error("no par.For launch spans — pool instrumentation not wired")
	}
	// The trace exports cleanly.
	st := p.Pool.Stats()
	if st.Launches == 0 || st.Totals().Tasks == 0 {
		t.Errorf("pool counters empty: %+v", st)
	}
}

// TestPipelineUntracedUnchanged: a nil tracer must leave RunCycle
// producing identical profiles (the disabled path changes nothing).
func TestPipelineUntracedUnchanged(t *testing.T) {
	mk := func(tr *obs.Tracer) *CycleResult {
		sim, err := clover.New(12, clover.Options{})
		if err != nil {
			t.Fatal(err)
		}
		filters := []viz.Filter{contour.New(contour.Options{Field: "energy", NumIsovalues: 3})}
		pool := par.NewPool(2)
		defer pool.Close()
		p, err := NewPipeline(sim, filters, 3, pool, cpu.BroadwellEP())
		if err != nil {
			t.Fatal(err)
		}
		p.Tracer = tr
		cr, err := p.RunCycle()
		if err != nil {
			t.Fatal(err)
		}
		return cr
	}
	plain := mk(nil)
	traced := mk(obs.NewTracer())
	if plain.SimProfile != traced.SimProfile {
		t.Error("tracing changed the simulation profile")
	}
	if plain.VizProfile != traced.VizProfile {
		t.Error("tracing changed the visualization profile")
	}
}
