package mesh

// The plain definition of trilinear sampling on a uniform grid — resolve
// the field by name, locate the cell with three divisions, list its
// eight corners, lerp x then y then z — that ScalarSampler and
// VectorSampler are held to bit for bit (TestSamplersBitIdentical, the
// trajectory and ray walks in sampler_walk_test.go). It was the
// production sampling path before the samplers; nothing outside the
// tests calls it now.

// locate returns the cell (i,j,k) containing position p and the parametric
// coordinates (u,v,w) in [0,1]³ within that cell. ok is false if p lies
// outside the grid bounds.
func (g *UniformGrid) locate(p Vec3) (ci, cj, ck int, u, v, w float64, ok bool) {
	cd := g.CellDims()
	fx := (p[0] - g.Origin[0]) / g.Spacing[0]
	fy := (p[1] - g.Origin[1]) / g.Spacing[1]
	fz := (p[2] - g.Origin[2]) / g.Spacing[2]
	if fx < 0 || fy < 0 || fz < 0 ||
		fx > float64(cd[0]) || fy > float64(cd[1]) || fz > float64(cd[2]) {
		return 0, 0, 0, 0, 0, 0, false
	}
	ci, cj, ck = int(fx), int(fy), int(fz)
	if ci >= cd[0] {
		ci = cd[0] - 1
	}
	if cj >= cd[1] {
		cj = cd[1] - 1
	}
	if ck >= cd[2] {
		ck = cd[2] - 1
	}
	u, v, w = fx-float64(ci), fy-float64(cj), fz-float64(ck)
	return ci, cj, ck, u, v, w, true
}

// SampleScalar evaluates the named point field at position p with trilinear
// interpolation. ok is false if p is outside the grid or the field is
// missing.
func (g *UniformGrid) SampleScalar(name string, p Vec3) (val float64, ok bool) {
	f := g.pointFields[name]
	if f == nil {
		return 0, false
	}
	return SampleScalarField(g, f, p)
}

// SampleScalarField evaluates an explicit point-field slice at position p
// with trilinear interpolation.
func SampleScalarField(g *UniformGrid, f []float64, p Vec3) (val float64, ok bool) {
	ci, cj, ck, u, v, w, ok := g.locate(p)
	if !ok {
		return 0, false
	}
	pts := g.CellPoints(g.CellID(ci, cj, ck))
	c000 := f[pts[0]]
	c100 := f[pts[1]]
	c110 := f[pts[2]]
	c010 := f[pts[3]]
	c001 := f[pts[4]]
	c101 := f[pts[5]]
	c111 := f[pts[6]]
	c011 := f[pts[7]]
	c00 := c000 + u*(c100-c000)
	c10 := c010 + u*(c110-c010)
	c01 := c001 + u*(c101-c001)
	c11 := c011 + u*(c111-c011)
	c0 := c00 + v*(c10-c00)
	c1 := c01 + v*(c11-c01)
	return c0 + w*(c1-c0), true
}

// SampleVector evaluates the named point vector field at position p with
// trilinear interpolation. ok is false if p is outside the grid or the
// field is missing.
func (g *UniformGrid) SampleVector(name string, p Vec3) (val Vec3, ok bool) {
	f := g.pointVectors[name]
	if f == nil {
		return Vec3{}, false
	}
	ci, cj, ck, u, v, w, ok := g.locate(p)
	if !ok {
		return Vec3{}, false
	}
	pts := g.CellPoints(g.CellID(ci, cj, ck))
	var out Vec3
	for c := 0; c < 3; c++ {
		c000 := f[pts[0]][c]
		c100 := f[pts[1]][c]
		c110 := f[pts[2]][c]
		c010 := f[pts[3]][c]
		c001 := f[pts[4]][c]
		c101 := f[pts[5]][c]
		c111 := f[pts[6]][c]
		c011 := f[pts[7]][c]
		c00 := c000 + u*(c100-c000)
		c10 := c010 + u*(c110-c010)
		c01 := c001 + u*(c101-c001)
		c11 := c011 + u*(c111-c011)
		c0 := c00 + v*(c10-c00)
		c1 := c01 + v*(c11-c01)
		out[c] = c0 + w*(c1-c0)
	}
	return out, true
}

// CellIndex returns the linearized id of the cell containing p, or
// ok=false when p is outside the grid. It matches the cell that
// SampleScalar/SampleVector would interpolate in, including the
// upper-boundary clamp.
func (g *UniformGrid) CellIndex(p Vec3) (int, bool) {
	ci, cj, ck, _, _, _, ok := g.locate(p)
	if !ok {
		return -1, false
	}
	cd := g.CellDims()
	return ci + cd[0]*(cj+cd[1]*ck), true
}
