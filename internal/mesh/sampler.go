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
// Bit-identity contract: At reproduces, bit for bit, the plain
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
//
// Positions go in and values come out as float64 scalars, never as Vec3:
// Go's register ABI passes an array of more than one element through
// memory, and these calls run once per sample.

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
func (sg *samplerGeom) index(x, y, z float64) (fx, fy, fz float64, ok bool) {
	if sg.exact {
		fx = (x - sg.org[0]) * sg.inv[0]
		fy = (y - sg.org[1]) * sg.inv[1]
		fz = (z - sg.org[2]) * sg.inv[2]
	} else {
		fx = (x - sg.org[0]) / sg.sp[0]
		fy = (y - sg.org[1]) / sg.sp[1]
		fz = (z - sg.org[2]) / sg.sp[2]
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

// Cell returns the linearized id of the cell containing (x, y, z) (the
// true (i,j,k) flattened in x-fastest order), or ok=false outside the
// grid. This is the id advection uses to count cell crossings: unlike
// any radius-derived bucket, distinct cells always map to distinct ids.
func (sg *samplerGeom) Cell(x, y, z float64) (int, bool) {
	fx, fy, fz, ok := sg.index(x, y, z)
	if !ok {
		return -1, false
	}
	ci, cj, ck := sg.clamp(fx, fy, fz)
	return ci + sg.cd[0]*(cj+sg.cd[1]*ck), true
}

// CellLayer returns the z cell layer containing (x, y, z), with the
// sampler's exact bounds test and clamp. Distributed advection uses it as
// the particle-ownership predicate, so every rank agrees bit for bit.
func (sg *samplerGeom) CellLayer(x, y, z float64) (int, bool) {
	fx, fy, fz, ok := sg.index(x, y, z)
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
	_, _, _, ok := sg.index(p[0], p[1], p[2])
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

// Sample evaluates the field at p; ok is false outside the grid. It is
// At for callers holding a Vec3, and small enough to inline.
func (s *ScalarSampler) Sample(p Vec3) (float64, bool) {
	return s.At(p[0], p[1], p[2])
}

// At evaluates the field at (x, y, z); ok is false outside the grid.
func (s *ScalarSampler) At(x, y, z float64) (float64, bool) {
	fx, fy, fz, ok := s.index(x, y, z)
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
	c := &s.corners
	return trilerp(c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7],
		fx-float64(ci), fy-float64(cj), fz-float64(ck)), true
}

// trilerp interpolates a cell's eight corner values (the gather order of
// the samplers) at local coordinates (u, v, w). The lerp order is the
// contract: x, then y, then z.
func trilerp(c0, c1, c2, c3, c4, c5, c6, c7, u, v, w float64) float64 {
	c00 := c0 + u*(c1-c0)
	c10 := c3 + u*(c2-c3)
	c01 := c4 + u*(c5-c4)
	c11 := c7 + u*(c6-c7)
	cy0 := c00 + v*(c10-c00)
	cy1 := c01 + v*(c11-c01)
	return cy0 + w*(cy1-cy0)
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
// from this storage: At returns ok=false and latches Escaped, so
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

// Escaped reports whether any At probe fell inside the domain but
// outside the sampler's stored layers.
func (s *VectorSampler) Escaped() bool { return s.escaped }

// At evaluates the field at (x, y, z); ok is false outside the grid or
// the stored layers.
func (s *VectorSampler) At(x, y, z float64) (vx, vy, vz float64, ok bool) {
	fx, fy, fz, ok := s.index(x, y, z)
	if !ok {
		return 0, 0, 0, false // outside the domain
	}
	ci, cj, ck := s.clamp(fx, fy, fz)
	if ck < s.kLo || ck >= s.kHi {
		s.escaped = true
		return 0, 0, 0, false
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
	c := &s.corners
	vx = trilerp(c[0][0], c[1][0], c[2][0], c[3][0], c[4][0], c[5][0], c[6][0], c[7][0], u, v, w)
	vy = trilerp(c[0][1], c[1][1], c[2][1], c[3][1], c[4][1], c[5][1], c[6][1], c[7][1], u, v, w)
	vz = trilerp(c[0][2], c[1][2], c[2][2], c[3][2], c[4][2], c[5][2], c[6][2], c[7][2], u, v, w)
	return vx, vy, vz, true
}
