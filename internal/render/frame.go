package render

import (
	"math"

	"repro/internal/mesh"
)

// Frame is a camera with its per-image constants precomputed: the
// orthonormal basis, the field-of-view tangent, and the pixel-to-NDC
// scale factors. Camera.Ray and Camera.Project recompute all of these on
// every call — two vector normalizations, two cross products, and a
// math.Tan per pixel — so render loops build one Frame per image and
// generate every ray through it.
type Frame struct {
	Eye mesh.Vec3
	// Basis of the view: forward into the scene, right along +x of the
	// image, up along +y.
	Forward, Right, Up mesh.Vec3
	// W, H are the image dimensions the frame was built for.
	W, H int

	invW, invH float64
	// uScale = tan(fov/2)·aspect, vScale = tan(fov/2).
	uScale, vScale float64
	// Reciprocals for Project (division by z remains per point).
	invUScale, invVScale float64
	halfW, halfH         float64
}

// Frame precomputes the camera constants for a w×h image.
func (c Camera) Frame(w, h int) Frame {
	forward, right, up := c.basis()
	tanHalf := math.Tan(c.FOVDeg * math.Pi / 360)
	aspect := float64(w) / float64(h)
	f := Frame{
		Eye: c.Eye, Forward: forward, Right: right, Up: up,
		W: w, H: h,
		invW: 1 / float64(w), invH: 1 / float64(h),
		uScale: tanHalf * aspect, vScale: tanHalf,
		halfW: 0.5 * float64(w), halfH: 0.5 * float64(h),
	}
	if f.uScale != 0 {
		f.invUScale = 1 / f.uScale
	}
	if f.vScale != 0 {
		f.invVScale = 1 / f.vScale
	}
	return f
}

// Ray returns the normalized direction of the world-space ray from Eye
// through pixel (px, py) (pixel centers). The direction comes back as
// three scalars: render loops call this once per pixel, and a Vec3
// result would pass through memory.
func (f *Frame) Ray(px, py int) (dx, dy, dz float64) {
	u := (2*(float64(px)+0.5)*f.invW - 1) * f.uScale
	v := (1 - 2*(float64(py)+0.5)*f.invH) * f.vScale
	x := f.Forward[0] + f.Right[0]*u + f.Up[0]*v
	y := f.Forward[1] + f.Right[1]*u + f.Up[1]*v
	z := f.Forward[2] + f.Right[2]*u + f.Up[2]*v
	// Vec3.Normalize's arithmetic: the reciprocal norm times each component.
	n := math.Sqrt(x*x + y*y + z*z)
	if n == 0 {
		return 0, 0, 0
	}
	s := 1 / n
	return s * x, s * y, s * z
}

// Project maps a world point to pixel coordinates and camera depth.
// ok is false for points at or behind the eye plane.
func (f *Frame) Project(p mesh.Vec3) (sx, sy, depth float64, ok bool) {
	d := p.Sub(f.Eye)
	z := d.Dot(f.Forward)
	if z <= 1e-9 {
		return 0, 0, 0, false
	}
	invZ := 1 / z
	x := d.Dot(f.Right) * invZ * f.invUScale
	y := d.Dot(f.Up) * invZ * f.invVScale
	sx = (x + 1) * f.halfW
	sy = (1 - y) * f.halfH
	return sx, sy, z, true
}
