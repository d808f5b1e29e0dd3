package mesh

import (
	"fmt"
	"math"
)

// This file provides the fast field-sampling layer used by the
// interpolation-bound hot paths (particle advection, resampling): samplers
// that resolve a field slice once, precompute the world→index transform,
// cache the corner values of the last visited cell, and do one fused
// eight-corner gather per sample instead of re-resolving the field by name
// and rebuilding the corner index list on every call.
//
// Bit-identity contract: Sample reproduces, bit for bit, the plain
// definition of trilinear sampling kept as the test oracle in
// sample_oracle_test.go (locate the cell with three divisions, list its
// eight corners, lerp x then y then z). The lerp runs in exactly that
// order, and the world→index conversion divides by the spacing exactly
// as the oracle does — except when a spacing component is a power of
// two, where multiplying by the precomputed reciprocal is provably exact
// and therefore produces the same bits as the division. Every grid the
// study sweeps (NewCubeGrid with 32…256 cells) has power-of-two spacing,
// so the hot path pays three multiplies, not three divisions, without
// giving up the golden-test guarantee on any grid.
//
// Samplers carry a mutable last-cell cache and therefore must not be
// shared between goroutines; they are small values, so parallel kernels
// give each worker its own copy of a prototype.

// samplerGeom is the shared world→index state of both sampler kinds.
type samplerGeom struct {
	org   [3]float64
	sp    [3]float64
	inv   [3]float64 // 1/spacing, used only when exact
	exact bool       // all spacing components are powers of two
	cd    [3]int
	cdf   [3]float64
	nx    int // point-id stride in y
	nxy   int // point-id stride in z
}

func newSamplerGeom(g *UniformGrid) samplerGeom {
	return newSamplerGeomFrom(g.Origin, g.Spacing, g.CellDims())
}

// newSamplerGeomFrom builds the geometry from explicit parameters, so a
// block sampler can run the whole-grid index arithmetic while holding
// only a slab of the storage (see blocks.go).
func newSamplerGeomFrom(origin, spacing Vec3, cd [3]int) samplerGeom {
	sg := samplerGeom{
		org: [3]float64{origin[0], origin[1], origin[2]},
		sp:  [3]float64{spacing[0], spacing[1], spacing[2]},
		cd:  cd,
		cdf: [3]float64{float64(cd[0]), float64(cd[1]), float64(cd[2])},
		nx:  cd[0] + 1,
		nxy: (cd[0] + 1) * (cd[1] + 1),
	}
	sg.exact = true
	for i := 0; i < 3; i++ {
		sg.inv[i] = 1 / sg.sp[i]
		if frac, _ := math.Frexp(sg.sp[i]); frac != 0.5 {
			sg.exact = false
		}
	}
	return sg
}

// index converts a world position to continuous cell coordinates and
// applies the domain bounds test — the one world→index transform every
// sampling path shares.
func (sg *samplerGeom) index(p Vec3) (fx, fy, fz float64, ok bool) {
	if sg.exact {
		fx = (p[0] - sg.org[0]) * sg.inv[0]
		fy = (p[1] - sg.org[1]) * sg.inv[1]
		fz = (p[2] - sg.org[2]) * sg.inv[2]
	} else {
		fx = (p[0] - sg.org[0]) / sg.sp[0]
		fy = (p[1] - sg.org[1]) / sg.sp[1]
		fz = (p[2] - sg.org[2]) / sg.sp[2]
	}
	if fx < 0 || fy < 0 || fz < 0 ||
		fx > sg.cdf[0] || fy > sg.cdf[1] || fz > sg.cdf[2] {
		return 0, 0, 0, false
	}
	return fx, fy, fz, true
}

// clamp truncates continuous cell coordinates to the containing cell; a
// position on an upper face belongs to the last cell.
func (sg *samplerGeom) clamp(fx, fy, fz float64) (ci, cj, ck int) {
	ci, cj, ck = int(fx), int(fy), int(fz)
	if ci >= sg.cd[0] {
		ci = sg.cd[0] - 1
	}
	if cj >= sg.cd[1] {
		cj = sg.cd[1] - 1
	}
	if ck >= sg.cd[2] {
		ck = sg.cd[2] - 1
	}
	return ci, cj, ck
}

// Cell returns the linearized id of the cell containing p (the true
// (i,j,k) flattened in x-fastest order), or ok=false outside the grid.
// This is the id advection uses to count cell crossings: unlike any
// radius-derived bucket, distinct cells always map to distinct ids.
func (sg *samplerGeom) Cell(p Vec3) (int, bool) {
	fx, fy, fz, ok := sg.index(p)
	if !ok {
		return -1, false
	}
	ci, cj, ck := sg.clamp(fx, fy, fz)
	return ci + sg.cd[0]*(cj+sg.cd[1]*ck), true
}

// CellLayer returns the z cell layer containing p, with the sampler's
// exact bounds test and clamp. Distributed advection uses it as the
// particle-ownership predicate, so every rank agrees bit for bit.
func (sg *samplerGeom) CellLayer(p Vec3) (int, bool) {
	fx, fy, fz, ok := sg.index(p)
	if !ok {
		return -1, false
	}
	_, _, ck := sg.clamp(fx, fy, fz)
	return ck, true
}

// InDomain reports whether p is inside the grid's sampling domain —
// the exact bounds test every sampler applies to the continuous cell
// coordinates. This is the shared seed-validation predicate: a position
// InDomain rejects is one a whole-grid sampler and every block's
// sampler reject identically.
func (g *UniformGrid) InDomain(p Vec3) bool {
	sg := newSamplerGeom(g)
	_, _, _, ok := sg.index(p)
	return ok
}

// ScalarSampler samples one point scalar field with trilinear
// interpolation. Not safe for concurrent use: copy the value per worker.
type ScalarSampler struct {
	samplerGeom
	f       []float64
	lastCi  int
	lastCj  int
	lastCk  int
	corners [8]float64
}

// ScalarSamplerFor builds a sampler over an explicit point-field slice.
func ScalarSamplerFor(g *UniformGrid, f []float64) *ScalarSampler {
	s := &ScalarSampler{samplerGeom: newSamplerGeom(g), f: f}
	s.lastCi, s.lastCj, s.lastCk = -1, -1, -1
	return s
}

// NewScalarSampler resolves a named point field once and builds a sampler
// over it.
func NewScalarSampler(g *UniformGrid, name string) (*ScalarSampler, error) {
	f := g.PointField(name)
	if f == nil {
		return nil, fmt.Errorf("mesh: no point field %q", name)
	}
	return ScalarSamplerFor(g, f), nil
}

// Sample evaluates the field at p; ok is false outside the grid.
func (s *ScalarSampler) Sample(p Vec3) (float64, bool) {
	fx, fy, fz, ok := s.index(p)
	if !ok {
		return 0, false
	}
	ci, cj, ck := s.clamp(fx, fy, fz)
	if ci != s.lastCi || cj != s.lastCj || ck != s.lastCk {
		base := ci + s.nx*cj + s.nxy*ck
		f := s.f
		s.corners[0] = f[base]
		s.corners[1] = f[base+1]
		s.corners[2] = f[base+1+s.nx]
		s.corners[3] = f[base+s.nx]
		s.corners[4] = f[base+s.nxy]
		s.corners[5] = f[base+1+s.nxy]
		s.corners[6] = f[base+1+s.nx+s.nxy]
		s.corners[7] = f[base+s.nx+s.nxy]
		s.lastCi, s.lastCj, s.lastCk = ci, cj, ck
	}
	u, v, w := fx-float64(ci), fy-float64(cj), fz-float64(ck)
	// Lerp order is the contract: x, then y, then z.
	c00 := s.corners[0] + u*(s.corners[1]-s.corners[0])
	c10 := s.corners[3] + u*(s.corners[2]-s.corners[3])
	c01 := s.corners[4] + u*(s.corners[5]-s.corners[4])
	c11 := s.corners[7] + u*(s.corners[6]-s.corners[7])
	c0 := c00 + v*(c10-c00)
	c1 := c01 + v*(c11-c01)
	return c0 + w*(c1-c0), true
}

// VectorSampler samples one point vector field with trilinear
// interpolation. The eight corner vectors are gathered once per cell and
// all three components are interpolated from the cached corners.
//
// The sampler answers probes whose cell layer lies in its stored window
// [kLo, kHi): every layer for a whole-grid sampler, the owned plus ghost
// layers for one built over a Block (NewBlockVectorSampler). Either way
// the world→index transform, bounds test, upper-face clamp, and lerp run
// in global grid coordinates — a sample near a block boundary computes
// exactly the same bits on whichever rank evaluates it — and only the
// corner gather is offset into the slab.
//
// A probe inside the domain but outside the window cannot be answered
// from this storage: Sample returns ok=false and latches Escaped, so
// callers can tell "left the domain: terminate the particle" (ok=false,
// not escaped) from "left the block: the ghost halo is too thin for
// this step length", which is a setup error, never a silently wrong
// value. A whole-grid sampler never escapes.
//
// Not safe for concurrent use: copy the value per worker (the copy gets
// its own cache and its own latch).
type VectorSampler struct {
	samplerGeom
	f        []Vec3
	kLo, kHi int // stored global cell layers [kLo, kHi)
	escaped  bool
	lastCi   int
	lastCj   int
	lastCk   int
	corners  [8]Vec3
}

func newVectorSampler(sg samplerGeom, f []Vec3, kLo, kHi int) *VectorSampler {
	return &VectorSampler{samplerGeom: sg, f: f, kLo: kLo, kHi: kHi, lastCi: -1, lastCj: -1, lastCk: -1}
}

// VectorSamplerFor builds a whole-grid sampler over an explicit
// point-vector slice.
func VectorSamplerFor(g *UniformGrid, f []Vec3) *VectorSampler {
	sg := newSamplerGeom(g)
	return newVectorSampler(sg, f, 0, sg.cd[2])
}

// NewVectorSampler resolves a named point vector field once and builds a
// whole-grid sampler over it.
func NewVectorSampler(g *UniformGrid, name string) (*VectorSampler, error) {
	f := g.PointVector(name)
	if f == nil {
		return nil, fmt.Errorf("mesh: no point vector field %q", name)
	}
	return VectorSamplerFor(g, f), nil
}

// Escaped reports whether any Sample probe fell inside the domain but
// outside the sampler's stored layers.
func (s *VectorSampler) Escaped() bool { return s.escaped }

// Sample evaluates the field at p; ok is false outside the grid or the
// stored layers.
func (s *VectorSampler) Sample(p Vec3) (Vec3, bool) {
	fx, fy, fz, ok := s.index(p)
	if !ok {
		return Vec3{}, false // outside the domain
	}
	ci, cj, ck := s.clamp(fx, fy, fz)
	if ck < s.kLo || ck >= s.kHi {
		s.escaped = true
		return Vec3{}, false
	}
	if ci != s.lastCi || cj != s.lastCj || ck != s.lastCk {
		base := ci + s.nx*cj + s.nxy*(ck-s.kLo)
		f := s.f
		s.corners[0] = f[base]
		s.corners[1] = f[base+1]
		s.corners[2] = f[base+1+s.nx]
		s.corners[3] = f[base+s.nx]
		s.corners[4] = f[base+s.nxy]
		s.corners[5] = f[base+1+s.nxy]
		s.corners[6] = f[base+1+s.nx+s.nxy]
		s.corners[7] = f[base+s.nx+s.nxy]
		s.lastCi, s.lastCj, s.lastCk = ci, cj, ck
	}
	u, v, w := fx-float64(ci), fy-float64(cj), fz-float64(ck)
	var out Vec3
	for c := 0; c < 3; c++ {
		// Per component, the scalar sampler's lerp order exactly.
		c00 := s.corners[0][c] + u*(s.corners[1][c]-s.corners[0][c])
		c10 := s.corners[3][c] + u*(s.corners[2][c]-s.corners[3][c])
		c01 := s.corners[4][c] + u*(s.corners[5][c]-s.corners[4][c])
		c11 := s.corners[7][c] + u*(s.corners[6][c]-s.corners[7][c])
		c0 := c00 + v*(c10-c00)
		c1 := c01 + v*(c11-c01)
		out[c] = c0 + w*(c1-c0)
	}
	return out, true
}
