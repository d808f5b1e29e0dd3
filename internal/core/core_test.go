package core

import (
	"math"
	"testing"

	"repro/internal/cpu"
	"repro/internal/msr"
	"repro/internal/ops"
	"repro/internal/par"
	"repro/internal/rapl"
	"repro/internal/sim/clover"
	"repro/internal/viz"
	"repro/internal/viz/contour"
	"repro/internal/viz/threshold"
)

func computeExec() cpu.Execution {
	var p ops.Profile
	p.Flops = 8e9
	p.LoadBytes[ops.Resident] = 16e9
	p.WorkingSetBytes = 16 << 20
	p.Launches = 2
	return cpu.Analyze(cpu.BroadwellEP(), p, 0)
}

func memoryExec() cpu.Execution {
	var p ops.Profile
	p.Flops = 4e8
	p.LoadBytes[ops.Stream] = 24e9
	p.WorkingSetBytes = 140 << 20
	p.Launches = 2
	return cpu.Analyze(cpu.BroadwellEP(), p, 0)
}

func capSweep(e cpu.Execution) (cpu.CapResult, []cpu.CapResult) {
	var byCap []cpu.CapResult
	for w := 120.0; w >= 40; w -= 10 {
		byCap = append(byCap, e.UnderCap(w))
	}
	return byCap[0], byCap
}

func TestClassify(t *testing.T) {
	base, byCap := capSweep(computeExec())
	if got := Classify(base, byCap); got != PowerSensitive {
		t.Errorf("compute-bound classified as %v", got)
	}
	base, byCap = capSweep(memoryExec())
	if got := Classify(base, byCap); got != PowerOpportunity {
		t.Errorf("memory-bound classified as %v", got)
	}
	if PowerSensitive.String() != "power sensitive" || PowerOpportunity.String() != "power opportunity" {
		t.Error("class names wrong")
	}
}

func newPipeline(t *testing.T) *Pipeline {
	t.Helper()
	sim, err := clover.New(12, clover.Options{})
	if err != nil {
		t.Fatal(err)
	}
	filters := []viz.Filter{
		contour.New(contour.Options{Field: "energy", NumIsovalues: 3}),
		threshold.New(threshold.Options{Field: "energy"}),
	}
	p, err := NewPipeline(sim, filters, 5, par.NewPool(2), cpu.BroadwellEP())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewPipelineValidation(t *testing.T) {
	if _, err := NewPipeline(nil, nil, 1, nil, cpu.Spec{}); err == nil {
		t.Error("nil sim accepted")
	}
	sim, _ := clover.New(4, clover.Options{})
	if _, err := NewPipeline(sim, nil, 1, nil, cpu.Spec{}); err == nil {
		t.Error("no filters accepted")
	}
	// Defaults fill in.
	p, err := NewPipeline(sim, []viz.Filter{threshold.New(threshold.Options{Field: "energy"})}, 0, nil, cpu.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if p.StepsPerCycle <= 0 || p.Pool == nil || p.Spec.Cores == 0 {
		t.Error("defaults not applied")
	}
}

func TestRunCycleProducesBothProfiles(t *testing.T) {
	p := newPipeline(t)
	cr, err := p.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	if cr.Cycle != 1 {
		t.Errorf("cycle = %d", cr.Cycle)
	}
	if cr.SimProfile == (ops.Profile{}) || cr.VizProfile == (ops.Profile{}) {
		t.Error("profiles empty")
	}
	if cr.SimExec.Instructions == 0 || cr.VizExec.Instructions == 0 {
		t.Error("executions empty")
	}
	cr2, err := p.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	if cr2.Cycle != 2 {
		t.Errorf("second cycle = %d", cr2.Cycle)
	}
	// Two cycles of 5 steps: the clock of a reference run of 10 steps.
	ref, err := clover.New(12, clover.Options{})
	if err != nil {
		t.Fatal(err)
	}
	refPool := par.NewPool(1)
	for i := 0; i < 10; i++ {
		ref.Step(refPool, nil)
	}
	if p.Sim.Time() != ref.Time() {
		t.Errorf("sim time = %v, want %v (10 steps)", p.Sim.Time(), ref.Time())
	}
}

func TestPipelineTraceAlternatesSegments(t *testing.T) {
	p := newPipeline(t)
	pkg := rapl.NewPackage(msr.NewFile(), p.Spec)
	if err := pkg.SetLimitWatts(80); err != nil {
		t.Fatal(err)
	}
	samples, results, err := p.Trace(pkg, 2, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("segments = %d, want 4 (2 cycles x sim+viz)", len(results))
	}
	if len(samples) == 0 {
		t.Error("no samples")
	}
	// Total sampled energy ~= sum of segment energies.
	var sampled, governed float64
	for _, s := range samples {
		sampled += s.EnergyJ
	}
	for _, r := range results {
		governed += r.EnergyJ
	}
	if math.Abs(sampled-governed) > 0.02*governed+0.01 {
		t.Errorf("sampled energy %v vs governed %v", sampled, governed)
	}
}

func TestAllocateBudgetFavorsSimWithOpportunityViz(t *testing.T) {
	sim := computeExec() // a hot, long-running simulation
	// A data-bound visualization taking ~10-20% of the cycle, as the
	// paper describes.
	var p ops.Profile
	p.Flops = 1e8
	p.LoadBytes[ops.Stream] = 6e9
	p.WorkingSetBytes = 140 << 20
	p.Launches = 2
	vis := cpu.Analyze(cpu.BroadwellEP(), p, 0)
	// A scarce budget: the two demands together exceed it.
	a, err := AllocateBudget(sim, vis, 130)
	if err != nil {
		t.Fatal(err)
	}
	if a.SimWatts <= a.VizWatts {
		t.Errorf("allocation gave sim %.0fW <= viz %.0fW; should starve the opportunity viz", a.SimWatts, a.VizWatts)
	}
	if a.Speedup < 1 {
		t.Errorf("informed split slower than naive: %v", a.Speedup)
	}
	if a.VizClass != PowerOpportunity {
		t.Errorf("viz classified %v", a.VizClass)
	}
	if math.Abs(a.SimWatts+a.VizWatts-130) > 1e-9 {
		t.Errorf("split does not sum to budget: %v + %v", a.SimWatts, a.VizWatts)
	}
	// The optimized time can never exceed the naive split's.
	if a.TimeSec > a.NaiveTimeSec+1e-12 {
		t.Errorf("optimized %v slower than naive %v", a.TimeSec, a.NaiveTimeSec)
	}
}

func TestAllocateBudgetRejectsTinyBudget(t *testing.T) {
	if _, err := AllocateBudget(computeExec(), memoryExec(), 60); err == nil {
		t.Error("budget below 2x floor accepted")
	}
}

func TestAllocateBudgetSymmetricWorkloads(t *testing.T) {
	a, err := AllocateBudget(computeExec(), computeExec(), 200)
	if err != nil {
		t.Fatal(err)
	}
	// Equal workloads: optimal is (near) even, speedup ~1.
	if math.Abs(a.SimWatts-a.VizWatts) > 1.5 {
		t.Errorf("symmetric split uneven: %v / %v", a.SimWatts, a.VizWatts)
	}
	if a.Speedup < 0.999 || a.Speedup > 1.01 {
		t.Errorf("symmetric speedup = %v, want ~1", a.Speedup)
	}
}
