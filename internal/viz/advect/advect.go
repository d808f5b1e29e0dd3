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
// points and speeds are written in place into one output allocation, a
// slot of NumSteps+1 points per particle (the step budget bounds every
// trail), which is compacted in PID order at the end: nothing grows and
// nothing but the output outlives the run. The straightforward
// per-particle integrator this replaced is the test oracle (runReference
// in reference_test.go); golden tests hold the two bit-identical.
package advect

import (
	"fmt"
	"sort"
	"sync"

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
// path (tests inject crafted seeds through this). Every particle's trail
// has a slot of NumSteps+1 points — the step budget bounds fixed and
// adaptive mode alike — in one output allocation, so the trails are
// written in place and never grow; the slots are then compacted in PID
// order, dropping lines of fewer than two points (Assemble's rule).
func (f *Filter) run(g *mesh.UniformGrid, ex *viz.Exec, starts []mesh.Vec3) *viz.Result {
	proto, err := mesh.NewVectorSampler(g, f.opts.Vector)
	if err != nil {
		// Caller checked the field; keep the reference behavior of an
		// empty result rather than a panic if it races away.
		return &viz.Result{Profile: ex.Drain(), Elements: int64(g.NumCells()), Lines: mesh.NewLineSet()}
	}
	a := f.Advancer(g)
	ps, total := a.Seed(starts, make([]Particle, 0, len(starts)))
	slot := int(a.numSteps) + 1
	pts := make([]mesh.Vec3, len(starts)*slot)
	spd := make([]float64, len(starts)*slot)
	lens := make([]int32, len(starts))
	dead := make([]bool, len(ps))

	// Rounds: every active particle advances one burst into its slot, then
	// the retired ones are compacted away. Only the launch count differs
	// from the reference's accounting (one per round).
	var mu sync.Mutex
	var rounds uint64
	for ; len(ps) > 0; ps = compact(ps, dead) {
		rounds++
		n := len(ps)
		ex.Pool.For(n, par.GrainFor(n, ex.Pool.Workers()), func(lo, hi, _ int) {
			s := *proto
			var t Tally
			var tr Trail
			for i := lo; i < hi; i++ {
				p := &ps[i]
				at := int(p.PID) * slot
				tr.Pts = pts[at : at+int(lens[p.PID]) : at+slot]
				tr.Spd = spd[at : at+int(lens[p.PID]) : at+slot]
				tr.Segs = tr.Segs[:0]
				dead[i] = Advance(a, &s, p, &tr, &t) != Resident
				if cap(tr.Pts) != slot {
					panic("advect: a trail outgrew its step budget")
				}
				lens[p.PID] = int32(len(tr.Pts))
			}
			mu.Lock()
			total.Add(t)
			mu.Unlock()
		})
	}

	out := &mesh.LineSet{Offsets: []int32{0}}
	w := 0
	for pid, n := range lens {
		if n < 2 {
			continue
		}
		copy(pts[w:], pts[pid*slot:pid*slot+int(n)])
		copy(spd[w:], spd[pid*slot:pid*slot+int(n)])
		w += int(n)
		out.Offsets = append(out.Offsets, int32(w))
	}
	out.Points, out.Scalars = pts[:w], spd[:w]
	ex.Charge(total.Cost(rounds, g.NumPoints(), uint64(len(out.Points))))

	return &viz.Result{
		Profile:  ex.Drain(),
		Elements: int64(g.NumCells()),
		Lines:    out,
	}
}

// compact drops the particles marked dead, preserving order.
func compact(ps []Particle, dead []bool) []Particle {
	w := 0
	for i, p := range ps {
		if !dead[i] {
			ps[w] = p
			w++
		}
	}
	return ps[:w]
}

// Assemble stitches the segments of every trail — the per-rank arenas
// dist.Advect gathers — into one LineSet: the segments ordered by (PID,
// Seq), so a line is its particle's bursts in the order they were
// advanced wherever each one ran; particles with fewer than two points
// dropped (the oracle's qualifying rule); the output slices sized
// exactly. Which trail holds a segment never changes the result. segs is
// sort scratch: pass the returned slice to the next call to reuse it, or
// nil.
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
