// Package harness drives the paper's experimental campaign: the 288-test
// matrix of 9 processor power caps × 8 visualization algorithms × 4 data
// set sizes (Section IV), organized into the paper's three phases, and
// the emitters that regenerate every table (I–III) and figure (2–6) of
// the evaluation.
//
// A key property of the simulated-hardware design: each (algorithm, size)
// pair executes once — the instrumented run yields a cap-independent
// operation profile — and the nine power caps are then applied through
// the processor model, exactly as real RAPL capping re-runs identical
// work under different limits.
package harness

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/cpu"
	"repro/internal/mesh"
	"repro/internal/ops"
	"repro/internal/par"
	"repro/internal/sim/clover"
	"repro/internal/telemetry"
	"repro/internal/viz"
	"repro/internal/viz/advect"
	"repro/internal/viz/clip"
	"repro/internal/viz/contour"
	"repro/internal/viz/gradient"
	"repro/internal/viz/histogram"
	"repro/internal/viz/isovolume"
	"repro/internal/viz/raytrace"
	"repro/internal/viz/slice"
	"repro/internal/viz/threshold"
	"repro/internal/viz/volren"
)

// Config holds the study parameters. Zero-value fields take the paper's
// defaults via Defaults; tests shrink the workload knobs.
type Config struct {
	// Spec is the modeled processor. Default: BroadwellEP.
	Spec cpu.Spec
	// Pool executes the instrumented kernels. Default: machine pool.
	Pool *par.Pool
	// Caps are the enforced power limits in watts, ordered as the paper
	// tables list them (high → low). Default 120…40 in 10 W steps.
	Caps []float64
	// Sizes are the data-set edge lengths in cells. Default
	// {32, 64, 128, 256}.
	Sizes []int
	// PhaseSize is the data-set size Phases 1 and 2 use. Default 128.
	PhaseSize int
	// Ranks are the fabric sizes the distributed-advection scaling
	// sweep (AdvectScaling) runs, ascending. Default {1, 2, 4, 8}.
	Ranks []int
	// Backend selects the formulation of the backend-capable geometry
	// kernels (contour, threshold): viz.Traditional (default) or
	// viz.DPP. Runs are cached per backend, so one config can sweep
	// both (see BackendCompare).
	Backend viz.Backend

	// Workload knobs (paper values by default).
	Images        int // ray tracing / volume rendering image count (50)
	ImageSize     int // image width=height (128)
	Particles     int // particle advection seeds (1024)
	ParticleSteps int // advection steps (1000)
	Isovalues     int // contour isovalues per cycle (10)

	// Hydro-proxy controls: the data set is the CloverLeaf-like run's
	// state near physical time SimTime (the paper uses time step 200).
	// Sizes above MaxSimSize are produced by trilinear resampling of the
	// largest direct run (see DESIGN.md substitutions).
	SimTime     float64
	MaxSimSize  int
	MaxSimSteps int

	// Progress, if non-nil, receives one line per completed run.
	Progress func(string)

	// Heartbeat, if non-nil, receives one "cell i/N (alg, size, ...)
	// done in Xs" (or "... FAILED after n attempt(s)") line per executed
	// sweep cell of any kind, so long campaigns are observable. Tests
	// leave it nil (quiet); the CLI wires stderr.
	Heartbeat io.Writer

	// Tracer, if non-nil, records one span per executed sweep cell on
	// the pipeline track and attributes each cell's stage timings into
	// AlgoRun.Stages (the report's cell-cost section). Attach the same
	// tracer to Pool via Instrument to see loop launches nested inside
	// the cell spans.
	Tracer *telemetry.Tracer

	// MaxRetries bounds re-executions of a failed sweep cell when the
	// error is transient (a dist.TransientError in its chain). Default 2;
	// set -1 to disable retries.
	MaxRetries int
	// RetryBackoff is the sleep before the first retry, doubling on each
	// further attempt. Default 10 ms.
	RetryBackoff time.Duration
	// Inject, when non-nil, is consulted before every execution attempt
	// of a sweep cell, under the name its CellError would carry (the
	// algorithm, "Particle Advection ranks=N", "Closed-loop governor");
	// a non-nil return fails that attempt. It is the deterministic
	// failure-injection hook the resilience tests use.
	Inject func(name string, size int, attempt int) error

	// run is everything executing the study accumulates. The exported
	// fields above are the declaration; see runState for the split.
	run *runState
}

// runState is what the caching shell — Dataset, Run and the sweeps built
// on them — accumulates on a Config. The shell is single-goroutine, as the
// paper's campaign is. The declaration-only entry points BuildDataset and
// Execute read datasets and write none of it, so a caller that keeps its
// own store (the serving daemon) builds through them from any number of
// goroutines and is the only owner of what it builds.
type runState struct {
	// datasets holds the Preloaded grids and the ones Dataset built.
	datasets map[int]*mesh.UniformGrid
	// cells is the one store of executed sweep cells, keyed by each
	// kind's typed key (see runCell).
	cells     map[any]any
	failures  []CellError
	cellsDone int
}

// Defaults fills unset fields with the paper's configuration and returns
// the config for chaining.
func (c *Config) Defaults() *Config {
	if c.Spec.Cores == 0 {
		c.Spec = cpu.BroadwellEP()
	}
	if c.Pool == nil {
		c.Pool = par.Default()
	}
	if len(c.Caps) == 0 {
		for w := 120.0; w >= 40; w -= 10 {
			c.Caps = append(c.Caps, w)
		}
	}
	if len(c.Sizes) == 0 {
		c.Sizes = []int{32, 64, 128, 256}
	}
	if c.PhaseSize == 0 {
		c.PhaseSize = 128
	}
	if len(c.Ranks) == 0 {
		c.Ranks = []int{1, 2, 4, 8}
	}
	if c.Images == 0 {
		c.Images = 50
	}
	if c.ImageSize == 0 {
		c.ImageSize = 128
	}
	if c.Particles == 0 {
		c.Particles = 1024
	}
	if c.ParticleSteps == 0 {
		c.ParticleSteps = 1000
	}
	if c.Isovalues == 0 {
		c.Isovalues = 10
	}
	if c.SimTime == 0 {
		c.SimTime = 0.12
	}
	if c.MaxSimSize == 0 {
		c.MaxSimSize = 128
	}
	if c.MaxSimSteps == 0 {
		c.MaxSimSteps = 400
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 10 * time.Millisecond
	}
	if c.run == nil {
		c.run = &runState{datasets: make(map[int]*mesh.UniformGrid), cells: make(map[any]any)}
	}
	return c
}

func (c *Config) log(format string, args ...any) {
	if c.Progress != nil {
		c.Progress(fmt.Sprintf(format, args...))
	}
}

// Preload installs an externally-built data set for the given size, so
// callers (and the benchmarks) can reuse one grid across many fresh
// configurations or bring their own data. The grid must be a unit-cube
// grid with size cells per axis carrying the study fields.
func (c *Config) Preload(size int, g *mesh.UniformGrid) {
	c.Defaults()
	c.run.datasets[size] = g
}

// Dataset returns (building and caching on first use) the CloverLeaf-like
// data set at the given size.
func (c *Config) Dataset(size int) (*mesh.UniformGrid, error) {
	c.Defaults()
	if g, ok := c.run.datasets[size]; ok {
		return g, nil
	}
	// The direct hydro run under a resample is cached under its own size.
	g, err := c.BuildDataset(size, c.Dataset)
	if err != nil {
		return nil, err
	}
	c.run.datasets[size] = g
	return g, nil
}

// BuildDataset is the declaration-only half of Dataset: the data set at
// size, uncached. A size this Config already holds (Preload, or an earlier
// Dataset) is returned as is; one up to MaxSimSize is a fresh hydro run;
// a larger one is a trilinear resampling of the MaxSimSize data set, which
// is asked of base — the caller's store. c must have had Defaults applied.
// It writes nothing to c, so any number of goroutines may call it at once
// (none of them concurrently with the shell).
func (c *Config) BuildDataset(size int, base func(size int) (*mesh.UniformGrid, error)) (*mesh.UniformGrid, error) {
	if g, ok := c.run.datasets[size]; ok {
		return g, nil
	}
	if size > c.MaxSimSize {
		g, err := base(c.MaxSimSize)
		if err != nil {
			return nil, err
		}
		up, err := mesh.ResampleCube(g, size)
		if err != nil {
			return nil, err
		}
		c.log("dataset %d^3: resampled from %d^3", size, c.MaxSimSize)
		return up, nil
	}
	s, err := clover.New(size, clover.Options{})
	if err != nil {
		return nil, err
	}
	steps := 0
	for s.Time() < c.SimTime && steps < c.MaxSimSteps {
		s.Step(c.Pool, nil)
		steps++
	}
	c.log("dataset %d^3: hydro ran %d steps to t=%.4f", size, steps, s.Time())
	return s.Grid()
}

// Filters returns the paper's eight algorithms, configured per c, in the
// row order of Tables II/III.
func (c *Config) Filters() []viz.Filter {
	c.Defaults()
	return []viz.Filter{
		contour.New(contour.Options{Field: "energy", NumIsovalues: c.Isovalues, Backend: c.Backend}),
		clip.New(clip.Options{Field: "energy"}),
		isovolume.New(isovolume.Options{Field: "energy"}),
		threshold.New(threshold.Options{Field: "energy", Backend: c.Backend}),
		slice.New(slice.Options{Field: "energy"}),
		raytrace.New(raytrace.Options{Field: "energy", Images: c.Images, Width: c.ImageSize, Height: c.ImageSize}),
		advect.New(advect.Options{Vector: "velocity", NumParticles: c.Particles, NumSteps: c.ParticleSteps}),
		volren.New(volren.Options{Field: "energy", Images: c.Images, Width: c.ImageSize, Height: c.ImageSize}),
	}
}

// ExtendedFilters returns the paper's eight algorithms plus the
// extension workloads added per its future work (gradient, histogram),
// so the classification can cover more of the in situ ecosystem.
func (c *Config) ExtendedFilters() []viz.Filter {
	return append(c.Filters(),
		gradient.New(gradient.Options{Field: "energy"}),
		histogram.New(histogram.Options{Field: "energy"}),
	)
}

// CellCenteredNames lists the algorithms the Fig. 3 rate metric applies
// to (those that iterate over each cell of the input).
var CellCenteredNames = []string{"Contour", "Isovolume", "Slice", "Spherical Clip", "Threshold"}

// FilterByName returns the configured filter (including extensions) with
// the given name.
func (c *Config) FilterByName(name string) (viz.Filter, error) {
	for _, f := range c.ExtendedFilters() {
		if f.Name() == name {
			return f, nil
		}
	}
	return nil, fmt.Errorf("harness: unknown algorithm %q", name)
}

// RunAllExtended executes the extended filter set at one size, partial
// on failure.
func (c *Config) RunAllExtended(size int) ([]*AlgoRun, error) {
	return c.runSet(c.ExtendedFilters(), size)
}

// AlgoRun is the outcome of one (algorithm, size) execution: the
// instrumented profile, its processor-model analysis, and the modeled
// result under every cap in Config.Caps (same order).
type AlgoRun struct {
	Name string
	Size int
	// Backend is the kernel formulation that produced the run:
	// viz.Traditional for every filter without a backend choice.
	Backend  viz.Backend
	Elements int64
	Profile  ops.Profile
	Exec     cpu.Execution
	// Base is the result at the first (default/TDP) cap.
	Base  cpu.CapResult
	ByCap []cpu.CapResult
	// WallSec is the measured wall-clock time of the instrumented
	// execution (dataset excluded) — what the cell actually cost this
	// machine, as opposed to the modeled TimeSec under a cap.
	WallSec float64
	// Stages, when Config.Tracer is set, attributes the cell's wall
	// clock across pipeline-track stages (self time per stage name).
	Stages []telemetry.StageStat
}

// runKey identifies an (algorithm, size) cell. Backend-capable filters
// are keyed per formulation, so one config can hold both a traditional
// and a DPP run of the same cell.
type runKey struct {
	name    string
	size    int
	backend viz.Backend
}

// Run executes one algorithm at one size (cached) and models it under
// every cap. Like every sweep cell it retries transient failures and is
// recorded in Failures when it still fails (see runCell).
func (c *Config) Run(f viz.Filter, size int) (*AlgoRun, error) {
	c.Defaults()
	return runCell(c, cellID{
		key:  runKey{f.Name(), size, filterBackend(f)},
		name: f.Name(),
		size: size,
		// Shared-memory cells run on one fabric rank.
		label: fmt.Sprintf("%s, %d^3, ranks=1, %d caps", f.Name(), size, len(c.Caps)),
	}, func() (*AlgoRun, error) {
		dsStart := c.Tracer.Begin()
		g, err := c.Dataset(size)
		c.Tracer.End(telemetry.PipelineTrack, "dataset", dsStart)
		if err != nil {
			return nil, err
		}
		return c.Execute(f, g)
	})
}

// Execute is the declaration-only half of Run: one uncached, unretried
// execution of f over the cube data set g, modeled under every cap. Like
// BuildDataset it needs Defaults applied, writes nothing to c and is safe
// from any number of goroutines.
func (c *Config) Execute(f viz.Filter, g *mesh.UniformGrid) (*AlgoRun, error) {
	size := g.CellDims()[0]
	ex := viz.NewExec(c.Pool)
	// The cell span plus the wall clock attribute what this cell cost
	// the machine; the span window is summarized into Stages below.
	cellName := fmt.Sprintf("%s/%d^3", f.Name(), size)
	t0 := time.Now()
	cellStart := c.Tracer.Begin()
	res, err := f.Run(g, ex)
	c.Tracer.End(telemetry.PipelineTrack, cellName, cellStart)
	wallSec := time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}
	run := &AlgoRun{
		Name:     f.Name(),
		Size:     size,
		Backend:  filterBackend(f),
		Elements: res.Elements,
		Profile:  res.Profile,
		Exec:     cpu.Analyze(c.Spec, res.Profile, 0),
		WallSec:  wallSec,
	}
	if c.Tracer != nil {
		var cell []telemetry.Span
		for _, s := range telemetry.Window(c.Tracer.Spans(), cellStart, c.Tracer.Now()) {
			if s.Track == telemetry.PipelineTrack {
				cell = append(cell, s)
			}
		}
		run.Stages = telemetry.Summarize(cell)
	}
	run.ByCap = make([]cpu.CapResult, len(c.Caps))
	for i, capW := range c.Caps {
		run.ByCap[i] = run.Exec.UnderCap(capW)
	}
	run.Base = run.ByCap[0]
	c.log("run %s at %d^3: T(base)=%.3fs P(demand)=%.1fW IPC=%.2f",
		run.Name, size, run.Base.TimeSec, run.Exec.Demand().PowerWatts, run.Base.IPC)
	return run, nil
}

// RunAll executes all eight algorithms at one size. A cell that still
// fails after its transient retries is recorded (see Failures) and
// skipped; the error return is non-nil only when every cell failed.
func (c *Config) RunAll(size int) ([]*AlgoRun, error) {
	return c.runSet(c.Filters(), size)
}

// runSet sweeps one filter list at one size, partial on failure.
func (c *Config) runSet(filters []viz.Filter, size int) ([]*AlgoRun, error) {
	return partial(len(filters), func(i int) (*AlgoRun, error) {
		r, err := c.Run(filters[i], size)
		if err != nil {
			c.log("skip %s at %d^3: %v", filters[i].Name(), size, err)
		}
		return r, err
	})
}

// SortedSizes returns the configured sizes ascending.
func (c *Config) SortedSizes() []int {
	c.Defaults()
	s := append([]int(nil), c.Sizes...)
	sort.Ints(s)
	return s
}
