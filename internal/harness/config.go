// Package harness executes the paper's experimental campaign: the
// 288-test matrix of 9 processor power caps × 8 visualization algorithms
// × 4 data set sizes (Section IV), organized into the paper's three
// phases, and the artifact table that regenerates every table (I–III)
// and figure (2–6) of the evaluation.
//
// The harness measures; internal/study models. Each (algorithm, size)
// pair executes once — the instrumented run yields a cap-independent
// operation profile, a study.Cell — and Run prices it through
// study.Price under the nine power caps once, when it stores the cell,
// exactly as real RAPL capping re-runs identical work under different
// limits.
package harness

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sim/clover"
	"repro/internal/study"
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

	// Workload knobs (paper values by default).
	Images        int // ray tracing / volume rendering image count (50)
	ImageSize     int // image width=height (128)
	Particles     int // particle advection seeds (1024)
	ParticleSteps int // advection steps (1000)
	Isovalues     int // contour isovalues per cycle (10)

	// Hydro-proxy controls: the data set is the CloverLeaf-like run's
	// state near physical time SimTime (the paper uses time step 200);
	// a run that needs more than maxSimSteps steps to reach it is an
	// error. Sizes above MaxSimSize are produced by trilinear
	// resampling of the largest direct run (see DESIGN.md
	// substitutions).
	SimTime    float64
	MaxSimSize int

	// Progress, if non-nil, receives one line per completed run.
	Progress func(string)

	// Heartbeat, if non-nil, receives one "cell i/N (alg, size, ...)
	// done in Xs" (or "... FAILED after n attempt(s)") line per executed
	// sweep cell of any kind, so long campaigns are observable. Tests
	// leave it nil (quiet); the CLI wires stderr.
	Heartbeat io.Writer

	// Tracer, if non-nil, records one span per executed sweep cell on
	// the pipeline track and keeps each cell's stage summary in
	// study.Cell.Stages (the report's cell-cost section). Attach the same
	// tracer to Pool via Instrument to see loop launches nested inside
	// the cell spans.
	Tracer *obs.Tracer

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
// grid with size cells per axis carrying the study fields; one with
// other cell dimensions is an error and is not installed.
func (c *Config) Preload(size int, g *mesh.UniformGrid) error {
	if d := g.CellDims(); d != [3]int{size, size, size} {
		return fmt.Errorf("harness: preload at %d^3: grid has %dx%dx%d cells", size, d[0], d[1], d[2])
	}
	c.Defaults()
	c.run.datasets[size] = g
	return nil
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

// maxSimSteps caps a hydro run, so a data set always takes bounded time
// to build; a run the cap stops short of SimTime fails.
const maxSimSteps = 400

// BuildDataset is the declaration-only half of Dataset: the data set at
// size, uncached. A size this Config already holds (Preload, or an earlier
// Dataset) is returned as is; one up to MaxSimSize is a fresh hydro run
// to SimTime, which fails if maxSimSteps stops it short; a larger one is
// a trilinear resampling of the MaxSimSize data set, which is asked of
// base — the caller's store. c must have had Defaults applied.
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
	for s.Time() < c.SimTime && steps < maxSimSteps {
		s.Step(c.Pool, nil)
		steps++
	}
	if s.Time() < c.SimTime {
		return nil, fmt.Errorf("harness: dataset %d^3: the hydro reached t=%.4f at its %d-step cap, short of SimTime %g",
			size, s.Time(), maxSimSteps, c.SimTime)
	}
	c.log("dataset %d^3: hydro ran %d steps to t=%.4f", size, steps, s.Time())
	return s.Grid()
}

// Filters returns the paper's eight algorithms, configured per c, in the
// row order of Tables II/III.
func (c *Config) Filters() []viz.Filter {
	c.Defaults()
	return []viz.Filter{
		contour.New(contour.Options{Field: "energy", NumIsovalues: c.Isovalues}),
		clip.New(clip.Options{Field: "energy"}),
		isovolume.New(isovolume.Options{Field: "energy"}),
		threshold.New(threshold.Options{Field: "energy"}),
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
func (c *Config) RunAllExtended(size int) ([]*study.Run, error) {
	return c.runSet(c.ExtendedFilters(), size)
}

// runKey identifies an (algorithm, size) cell.
type runKey struct {
	name string
	size int
}

// Run executes one algorithm at one size (cached) and prices the
// measured cell under every cap. Like every sweep cell it retries
// transient failures and is recorded in Failures when it still fails
// (see runCell).
func (c *Config) Run(f viz.Filter, size int) (*study.Run, error) {
	c.Defaults()
	return runCell(c, cellID{
		key:  runKey{f.Name(), size},
		name: f.Name(),
		size: size,
		// Shared-memory cells run on one fabric rank.
		label: fmt.Sprintf("%s, %d^3, ranks=1, %d caps", f.Name(), size, len(c.Caps)),
	}, func() (*study.Run, error) {
		dsStart := c.Tracer.Begin()
		g, err := c.Dataset(size)
		c.Tracer.End(obs.Pipeline, "dataset", dsStart)
		if err != nil {
			return nil, err
		}
		cell, err := c.Execute(f, g)
		if err != nil {
			return nil, err
		}
		run := study.Price(cell, c.Caps)
		c.log("run %s at %d^3: T(base)=%.3fs P(demand)=%.1fW IPC=%.2f",
			run.Name, size, run.ByCap[0].TimeSec, run.Demand.PowerWatts, run.ByCap[0].IPC)
		return run, nil
	})
}

// Execute is the declaration-only half of Run: one uncached, unretried
// execution of f over the cube data set g, returned as the measured
// cell. Like BuildDataset it needs Defaults applied, writes nothing to c
// and is safe from any number of goroutines.
func (c *Config) Execute(f viz.Filter, g *mesh.UniformGrid) (*study.Cell, error) {
	size := g.CellDims()[0]
	ex := viz.NewExec(c.Pool)
	// The cell span plus the wall clock attribute what this cell cost
	// the machine; the spans since the mark are summarized into Stages.
	cellName := fmt.Sprintf("%s/%d^3", f.Name(), size)
	mark := c.Tracer.Mark()
	t0 := time.Now()
	cellStart := c.Tracer.Begin()
	res, err := f.Run(g, ex)
	c.Tracer.End(obs.Pipeline, cellName, cellStart)
	wallSec := time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}
	return &study.Cell{
		Name: f.Name(), Size: size, Elements: res.Elements,
		Profile: res.Profile, DPP: res.DPP,
		WallSec: wallSec, Stages: c.Tracer.Stages(mark, obs.Pipeline),
	}, nil
}

// RunAll executes all eight algorithms at one size. A cell that still
// fails after its transient retries is recorded (see Failures) and
// skipped; the error return is non-nil only when every cell failed.
func (c *Config) RunAll(size int) ([]*study.Run, error) {
	return c.runSet(c.Filters(), size)
}

// runSet sweeps one filter list at one size, partial on failure.
func (c *Config) runSet(filters []viz.Filter, size int) ([]*study.Run, error) {
	return partial(len(filters), func(i int) (*study.Run, error) {
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
