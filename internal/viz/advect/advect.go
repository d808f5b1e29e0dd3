// Package advect implements the study's particle-advection algorithm:
// massless particles seeded throughout the data set are advected through
// a steady-state vector field with fourth-order Runge–Kutta integration
// for a fixed number of fixed-length steps, producing streamlines.
// Following the paper (§VI-C3), the seed count, step length, and step
// count are held constant regardless of the data-set size; particles that
// leave the bounding box terminate. RK4's dense floating-point work and
// the small per-particle memory footprint make this one of the two
// power-sensitive (compute-bound) algorithms of the study.
//
// The production integrator (this file) runs on the mesh sampling layer:
// the vector field is resolved by name once per launch into a
// mesh.VectorSampler (fused eight-corner gather, last-cell corner cache,
// exact reciprocal spacing on the study's power-of-two grids), and the
// active particle list is advanced in rounds of a few hundred steps —
// each particle through Advance (advance.go) — and compacted between
// rounds so terminated particles stop costing iterations. Streamline
// points and speeds accumulate in per-worker arenas (segments stitched
// into the output LineSet by Assemble) instead of per-particle append
// slices, and the whole working state is leased from the pool scratch
// store across runs. The straightforward per-particle integrator this
// replaced is the test oracle (runReference in reference_test.go);
// golden tests hold the two bit-identical.
package advect

import (
	"fmt"
	"sort"

	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/viz"
)

// Options configures the filter.
type Options struct {
	// Vector is the point vector field advected through. Default
	// "velocity".
	Vector string
	// NumParticles is the seed count. Default 1024.
	NumParticles int
	// NumSteps is the maximum steps per particle. Default 1000.
	NumSteps int
	// StepLength is the integration step in world units. Default 0.002
	// (constant across data sizes, as in the paper).
	StepLength float64
	// Adaptive switches from the paper's fixed-step RK4 to the embedded
	// Bogacki–Shampine 3(2) pair with error control (an extension; see
	// adaptive.go). StepLength becomes the initial step and NumSteps
	// bounds both the accepted-step count and the total arc length
	// (NumSteps × StepLength).
	Adaptive bool
	// Tolerance is the per-step error bound in adaptive mode.
	// Default 1e-5 world units.
	Tolerance float64
}

// Filter is the particle-advection algorithm.
type Filter struct{ opts Options }

// New creates a particle-advection filter.
func New(opts Options) *Filter {
	if opts.Vector == "" {
		opts.Vector = "velocity"
	}
	if opts.NumParticles <= 0 {
		opts.NumParticles = 1024
	}
	if opts.NumSteps <= 0 {
		opts.NumSteps = 1000
	}
	if opts.StepLength <= 0 {
		opts.StepLength = 0.002
	}
	if opts.Tolerance <= 0 {
		opts.Tolerance = 1e-5
	}
	return &Filter{opts: opts}
}

// Name implements viz.Filter.
func (f *Filter) Name() string { return "Particle Advection" }

func missingVectorErr(name string) error {
	return fmt.Errorf("advect: grid has no point vector field %q", name)
}

// seeds places n particles on a jittered lattice through the bounds,
// deterministically (a fixed linear congruential generator).
func seeds(b mesh.Bounds, n int) []mesh.Vec3 {
	side := 1
	for side*side*side < n {
		side++
	}
	out := make([]mesh.Vec3, 0, n)
	rng := uint64(0x9E3779B97F4A7C15)
	next := func() float64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return float64(rng>>11) / float64(1<<53)
	}
	size := b.Size()
	for k := 0; k < side && len(out) < n; k++ {
		for j := 0; j < side && len(out) < n; j++ {
			for i := 0; i < side && len(out) < n; i++ {
				p := mesh.Vec3{
					b.Lo[0] + size[0]*(float64(i)+0.2+0.6*next())/float64(side),
					b.Lo[1] + size[1]*(float64(j)+0.2+0.6*next())/float64(side),
					b.Lo[2] + size[2]*(float64(k)+0.2+0.6*next())/float64(side),
				}
				out = append(out, p)
			}
		}
	}
	return out
}

// stepsPerRound is the burst length of one compacted parallel pass: long
// enough that dispatch cost vanishes against the integration work, short
// enough that early-terminating seed populations (a uniform flow exits
// the box in a few hundred steps) shed their dead particles quickly.
const stepsPerRound = 256

// advectScratch is the reusable working state of one advection run: the
// active particles, per-worker arenas, and the assembly buffer. It is
// leased from the pool scratch store so repeated runs (the study's sweeps
// run the filter hundreds of times) allocate almost nothing.
type advectScratch struct {
	ps   []Particle
	dead []bool // retired this round; dropped by compact
	// Per-worker streamline arenas and crossing totals.
	arenas []Trail
	crossw []uint64
	segs   []Segment // Assemble's sort buffer
}

type advectScratchKey struct{}

// leaseScratch leases (or builds) scratch sized for n particles on a
// pool with the given worker count.
func leaseScratch(pool *par.Pool, n, workers int) *advectScratch {
	sc, _ := pool.GetScratch(advectScratchKey{}).(*advectScratch)
	if sc == nil {
		sc = &advectScratch{}
	}
	if cap(sc.ps) < n {
		sc.ps = make([]Particle, 0, n)
		sc.dead = make([]bool, n)
	}
	sc.ps, sc.dead = sc.ps[:0], sc.dead[:n]
	if len(sc.arenas) < workers {
		sc.arenas = make([]Trail, workers)
		sc.crossw = make([]uint64, workers)
	}
	sc.arenas = sc.arenas[:workers]
	sc.crossw = sc.crossw[:workers]
	for w := range sc.arenas {
		sc.arenas[w].reset()
		sc.crossw[w] = 0
	}
	return sc
}

// compact drops the particles marked dead, preserving order.
func (sc *advectScratch) compact() {
	w := 0
	for i, p := range sc.ps {
		if !sc.dead[i] {
			sc.ps[w] = p
			w++
		}
	}
	sc.ps = sc.ps[:w]
}

// Run implements viz.Filter.
func (f *Filter) Run(g *mesh.UniformGrid, ex *viz.Exec) (*viz.Result, error) {
	return f.RunSeeds(g, ex, seeds(g.Bounds(), f.opts.NumParticles))
}

// RunSeeds is Run over an explicit seed list instead of the filter's
// own seed stream (the distributed golden tests inject crafted seeds
// through this).
func (f *Filter) RunSeeds(g *mesh.UniformGrid, ex *viz.Exec, starts []mesh.Vec3) (*viz.Result, error) {
	if g.PointVector(f.opts.Vector) == nil {
		return nil, missingVectorErr(f.opts.Vector)
	}
	return f.run(g, ex, starts), nil
}

// run integrates an explicit seed list through the sampler-based hot
// path (tests inject crafted seeds through this).
func (f *Filter) run(g *mesh.UniformGrid, ex *viz.Exec, starts []mesh.Vec3) *viz.Result {
	proto, err := mesh.NewVectorSampler(g, f.opts.Vector)
	if err != nil {
		// Caller checked the field; keep the reference behavior of an
		// empty result rather than a panic if it races away.
		return &viz.Result{Profile: ex.Drain(), Elements: int64(g.NumCells()), Lines: mesh.NewLineSet()}
	}
	sc := leaseScratch(ex.Pool, len(starts), ex.Pool.Workers())
	a := f.Advancer(g)
	var total Tally
	sc.ps, total = a.Seed(starts, sc.ps)
	total.Record(ex.Rec(0))

	// Rounds: every active particle advances one burst, then the
	// retired ones are compacted away. Only the launch count differs
	// from the reference's accounting (one per round).
	for ; len(sc.ps) > 0; sc.compact() {
		ex.Rec(0).Launch()
		n := len(sc.ps)
		ex.Pool.For(n, par.GrainFor(n, ex.Pool.Workers()), func(lo, hi, worker int) {
			s := *proto
			var t Tally
			for i := lo; i < hi; i++ {
				sc.dead[i] = Advance(a, &s, &sc.ps[i], &sc.arenas[worker], &t) != Resident
			}
			t.Record(ex.Rec(worker))
			sc.crossw[worker] += t.Crossings
		})
	}

	var out *mesh.LineSet
	out, sc.segs = Assemble(sc.arenas, sc.segs)
	for _, c := range sc.crossw {
		total.Crossings += c
	}
	ex.Rec(0).WorkingSet(total.WorkingSet(g.NumPoints(), uint64(len(out.Points))))
	ex.Pool.PutScratch(advectScratchKey{}, sc)

	return &viz.Result{
		Profile:  ex.Drain(),
		Elements: int64(g.NumCells()),
		Lines:    out,
	}
}

// Assemble stitches the segments of every trail — per-worker arenas in
// Run, per-rank arenas gathered by dist.Advect — into one LineSet: the
// segments ordered by (PID, Seq), so a line is its particle's bursts in
// the order they were advanced wherever each one ran; particles with
// fewer than two points dropped (the oracle's qualifying rule); the
// output slices sized exactly. Which trail holds a segment never
// changes the result. segs is sort scratch: pass the returned slice to
// the next call to reuse it, or nil.
func Assemble(trails []Trail, segs []Segment) (*mesh.LineSet, []Segment) {
	segs = segs[:0]
	for src := range trails {
		for _, sg := range trails[src].Segs {
			sg.Src = int32(src)
			segs = append(segs, sg)
		}
	}
	sort.Slice(segs, func(a, b int) bool {
		if segs[a].PID != segs[b].PID {
			return segs[a].PID < segs[b].PID
		}
		return segs[a].Seq < segs[b].Seq
	})
	nLines, total := 0, 0
	for i := 0; i < len(segs); {
		j, n := particleRun(segs, i)
		if n >= 2 {
			total += n
			nLines++
		}
		i = j
	}
	out := &mesh.LineSet{
		Points:  make([]mesh.Vec3, 0, total),
		Scalars: make([]float64, 0, total),
		Offsets: make([]int32, 1, nLines+1),
	}
	for i := 0; i < len(segs); {
		j, n := particleRun(segs, i)
		if n >= 2 {
			for _, sg := range segs[i:j] {
				tr := &trails[sg.Src]
				out.Points = append(out.Points, tr.Pts[sg.Off:sg.Off+sg.N]...)
				out.Scalars = append(out.Scalars, tr.Spd[sg.Off:sg.Off+sg.N]...)
			}
			out.Offsets = append(out.Offsets, int32(len(out.Points)))
		}
		i = j
	}
	return out, segs
}

// particleRun returns the end of the run of sorted segments that belong
// to segs[i]'s particle, and the points they hold together.
func particleRun(segs []Segment, i int) (j, n int) {
	for j = i; j < len(segs) && segs[j].PID == segs[i].PID; j++ {
		n += int(segs[j].N)
	}
	return j, n
}
