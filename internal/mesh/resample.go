package mesh

import (
	"fmt"

	"repro/internal/par"
)

// ResampleCube produces an n-cell cube grid whose fields are trilinear
// resamplings of g's fields: every cell field (via its recentered point
// version), every point field, and every point vector field. g is only
// read. The study harness uses it to synthesize data-set sizes larger
// than the largest hydro run that is practical here (a documented
// substitution; the visualization workloads only care about field
// smoothness and feature scale, which resampling preserves). It runs on
// the default pool, one output plane per iteration; a sample does not
// depend on which worker takes it, so the grid is the same on every pool.
func ResampleCube(g *UniformGrid, n int) (*UniformGrid, error) {
	out, err := NewCubeGrid(n)
	if err != nil {
		return nil, err
	}
	if g.Bounds() != out.Bounds() {
		return nil, fmt.Errorf("mesh: ResampleCube requires a unit-cube source, got bounds %+v", g.Bounds())
	}
	pool := par.Default()

	// The output is a cube, so one list holds its points' coordinate
	// along every axis, PointPosition's along the diagonal, and another
	// its cell centres', CellCenter's. Destinations are filled in id
	// order (x fastest), so a sampler's cached cell covers most probes.
	pts := make([]float64, n+1)
	for i := range pts {
		pts[i] = out.PointPosition(out.PointID(i, i, i))[0]
	}
	ctrs := make([]float64, n)
	for i := range ctrs {
		ctrs[i] = out.CellCenter(out.CellID(i, i, i))[0]
	}
	// sample fills dst with proto's field on the lattice xs³, one z
	// plane per iteration; each chunk of planes samples through a copy of
	// proto, whose cell cache is its own.
	sample := func(proto *ScalarSampler, dst []float64, xs []float64) {
		pool.For(len(xs), 0, func(lo, hi, _ int) {
			s := *proto
			id := lo * len(xs) * len(xs)
			for _, z := range xs[lo:hi] {
				for _, y := range xs {
					for _, x := range xs {
						dst[id], _ = s.At(x, y, z) // zero outside the grid
						id++
					}
				}
			}
		})
	}
	for name, src := range g.cellFields {
		// A cell field is sampled through its point version; one that has
		// none is recentered into a private slice, never into g, which
		// other goroutines may be reading.
		pf := g.pointFields[name]
		if pf == nil {
			pf = g.recenter(src)
		}
		s := ScalarSamplerFor(g, pf)
		sample(s, out.AddCellField(name), ctrs)
		sample(s, out.AddPointField(name), pts)
	}
	for name, src := range g.pointFields {
		if out.pointFields[name] != nil {
			continue // already produced alongside the cell field
		}
		sample(ScalarSamplerFor(g, src), out.AddPointField(name), pts)
	}
	for name, src := range g.pointVectors {
		proto := VectorSamplerFor(g, src)
		dst := out.AddPointVector(name)
		pool.For(len(pts), 0, func(lo, hi, _ int) {
			s := *proto
			id := lo * len(pts) * len(pts)
			for _, z := range pts[lo:hi] {
				for _, y := range pts {
					for _, x := range pts {
						vx, vy, vz, _ := s.At(x, y, z)
						dst[id] = Vec3{vx, vy, vz}
						id++
					}
				}
			}
		})
	}
	return out, nil
}
