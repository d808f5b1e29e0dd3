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

	// Resolve each source field into a sampler once; destination points
	// walk the grid in order, so the sampler's cached cell covers most
	// probes.
	samplePts := func(s *ScalarSampler, dst []float64) {
		for id := range dst {
			v, ok := s.Sample(out.PointPosition(id))
			if !ok {
				v = 0
			}
			dst[id] = v
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
			v, ok := s.Sample(out.CellCenter(c))
			if !ok {
				v = 0
			}
			cf[c] = v
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
		for id := range dst {
			v, ok := s.Sample(out.PointPosition(id))
			if !ok {
				v = Vec3{}
			}
			dst[id] = v
		}
	}
	return out, nil
}
