// Package gradient implements a gradient filter — an extension beyond the
// paper's eight algorithms, answering its future-work call to classify
// more of the visualization ecosystem. The filter computes the
// central-difference gradient vector and its magnitude for a point scalar
// field, a building block of shading, feature detection, and vorticity
// analysis. Its profile — one small stencil of strided loads and a dozen
// flops per point — lands it firmly in the power-opportunity class.
package gradient

import (
	"fmt"

	"repro/internal/mesh"
	"repro/internal/ops"
	"repro/internal/viz"
)

// Options configures the filter.
type Options struct {
	// Field is the point scalar differentiated (a cell field is
	// recentered). Default "energy".
	Field string
	// Output names the produced vector field. Default "gradient"; the
	// magnitude is stored as Output+"_mag". Both live on Result.Grid.
	Output string
}

// Filter is the gradient extension filter.
type Filter struct{ opts Options }

// New creates a gradient filter.
func New(opts Options) *Filter {
	if opts.Field == "" {
		opts.Field = "energy"
	}
	if opts.Output == "" {
		opts.Output = "gradient"
	}
	return &Filter{opts: opts}
}

// Name implements viz.Filter.
func (f *Filter) Name() string { return "Gradient" }

// Run implements viz.Filter. The output fields go on a grid of the
// input's shape that the result owns: the input may be shared (the
// daemon runs sweep cells and frame builds over one cached data set),
// so the filter adds nothing to it.
func (f *Filter) Run(g *mesh.UniformGrid, ex *viz.Exec) (*viz.Result, error) {
	field, err := g.EnsurePointField(f.opts.Field)
	if err != nil {
		return nil, fmt.Errorf("gradient: %w", err)
	}
	out, err := mesh.NewUniformGrid(g.Dims, g.Origin, g.Spacing)
	if err != nil {
		return nil, fmt.Errorf("gradient: %w", err)
	}
	grad := out.AddPointVector(f.opts.Output)
	mag := out.AddPointField(f.opts.Output + "_mag")
	nx, ny, nz := g.Dims[0], g.Dims[1], g.Dims[2]
	inv2 := mesh.Vec3{0.5 / g.Spacing[0], 0.5 / g.Spacing[1], 0.5 / g.Spacing[2]}

	ex.Rec(0).Launch()
	ex.Pool.For(g.NumPoints(), 0, func(lo, hi, worker int) {
		rec := ex.Rec(worker)
		for id := lo; id < hi; id++ {
			i, j, k := g.PointIJK(id)
			// One-sided differences at the boundary, central inside,
			// expressed through index clamping with the matching scale.
			dx := diff(field, g, i, j, k, 0, nx, inv2[0])
			dy := diff(field, g, i, j, k, 1, ny, inv2[1])
			dz := diff(field, g, i, j, k, 2, nz, inv2[2])
			v := mesh.Vec3{dx, dy, dz}
			grad[id] = v
			mag[id] = v.Norm()
		}
		n := uint64(hi - lo)
		rec.Loads(n*6*8, ops.Strided) // the 6-point stencil
		rec.Flops(n * 18)
		rec.IntOps(n * 14)
		rec.Branches(n * 6)
		rec.Stores(n*32, ops.Stream)
	})
	ex.Rec(0).WorkingSet(uint64(g.NumPoints()) * (8 + 32))

	return &viz.Result{
		Profile:  ex.Drain(),
		Elements: int64(g.NumCells()),
		Grid:     out,
	}, nil
}

// diff computes the derivative along one axis with clamped indices.
func diff(field []float64, g *mesh.UniformGrid, i, j, k, axis, n int, inv2 float64) float64 {
	lo := [3]int{i, j, k}
	hi := lo
	if lo[axis] > 0 {
		lo[axis]--
	}
	if hi[axis] < n-1 {
		hi[axis]++
	}
	span := float64(hi[axis] - lo[axis])
	if span == 0 {
		return 0
	}
	vHi := field[g.PointID(hi[0], hi[1], hi[2])]
	vLo := field[g.PointID(lo[0], lo[1], lo[2])]
	// inv2 is 1/(2h); rescale for one-sided (span 1) stencils.
	return (vHi - vLo) * inv2 * (2 / span)
}
