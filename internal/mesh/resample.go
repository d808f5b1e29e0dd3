package mesh

import "fmt"

// ResampleCube produces an n-cell cube grid whose fields are trilinear
// resamplings of g's fields: every cell field (via its recentered point
// version), every point field, and every point vector field. g is only
// read. The study harness uses it to synthesize data-set sizes larger
// than the largest hydro run that is practical here (a documented
// substitution; the visualization workloads only care about field
// smoothness and feature scale, which resampling preserves).
func ResampleCube(g *UniformGrid, n int) (*UniformGrid, error) {
	out, err := NewCubeGrid(n)
	if err != nil {
		return nil, err
	}
	if g.Bounds() != out.Bounds() {
		return nil, fmt.Errorf("mesh: ResampleCube requires a unit-cube source, got bounds %+v", g.Bounds())
	}

	// Resolve each source field into a sampler once. Destination points
	// walk the grid in id order (x fastest), so the sampler's cached cell
	// covers most probes; their coordinates are PointPosition's
	// arithmetic, evaluated once per axis index instead of once per id.
	var axes [3][]float64
	for a := range axes {
		axes[a] = make([]float64, out.Dims[a])
		for i := range axes[a] {
			axes[a][i] = out.Origin[a] + float64(i)*out.Spacing[a]
		}
	}
	samplePts := func(s *ScalarSampler, dst []float64) {
		id := 0
		for _, z := range axes[2] {
			for _, y := range axes[1] {
				for _, x := range axes[0] {
					dst[id], _ = s.At(x, y, z) // zero outside the grid
					id++
				}
			}
		}
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
		cf := out.AddCellField(name)
		for c := range cf {
			p := out.CellCenter(c)
			cf[c], _ = s.At(p[0], p[1], p[2])
		}
		samplePts(s, out.AddPointField(name))
	}
	for name, src := range g.pointFields {
		if out.pointFields[name] != nil {
			continue // already produced alongside the cell field
		}
		samplePts(ScalarSamplerFor(g, src), out.AddPointField(name))
	}
	for name := range g.pointVectors {
		s, err := NewVectorSampler(g, name)
		if err != nil {
			return nil, err
		}
		dst := out.AddPointVector(name)
		id := 0
		for _, z := range axes[2] {
			for _, y := range axes[1] {
				for _, x := range axes[0] {
					vx, vy, vz, _ := s.At(x, y, z)
					dst[id] = Vec3{vx, vy, vz}
					id++
				}
			}
		}
	}
	return out, nil
}
