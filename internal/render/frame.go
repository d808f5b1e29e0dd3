package render

import (
	"image"
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

// Footprint returns the pixels of the image whose rays can meet b: the
// bounding rectangle of b's eight corners as Project places them, padded
// by one pixel and clipped to the image. Every ray of a pixel outside it
// fails mesh.RaySlab against b over [0, +Inf), so a renderer may leave
// those pixels at their miss value without tracing them.
//
// When every corner is in front of the eye plane, so is the whole box,
// and its projection is the convex hull of the corners' projections. A
// ray meeting the box meets it at a point that projects to the ray's own
// pixel center, so that center lies in the hull; the pad covers the
// rounding of Ray, Project and RaySlab, which is far below a pixel. When
// a corner is not in front of the eye plane — as happens whenever the eye
// is inside b — or b is not finite, the footprint is the whole image.
func (f *Frame) Footprint(b *mesh.Bounds) image.Rectangle {
	whole := image.Rect(0, 0, f.W, f.H)
	x0, y0 := math.Inf(1), math.Inf(1)
	x1, y1 := math.Inf(-1), math.Inf(-1)
	for c := 0; c < 8; c++ {
		p := b.Lo
		for ax := 0; ax < 3; ax++ {
			if c&(1<<ax) != 0 {
				p[ax] = b.Hi[ax]
			}
			if math.IsInf(p[ax], 0) || math.IsNaN(p[ax]) {
				return whole
			}
		}
		sx, sy, _, ok := f.Project(p)
		if !ok {
			return whole
		}
		x0, x1 = min(x0, sx), max(x1, sx)
		y0, y1 = min(y0, sy), max(y1, sy)
	}
	lo := func(v float64, n int) int { return int(math.Max(0, math.Min(float64(n), math.Floor(v)-1))) }
	hi := func(v float64, n int) int { return int(math.Max(0, math.Min(float64(n), math.Floor(v)+2))) }
	return image.Rectangle{Min: image.Pt(lo(x0, f.W), lo(y0, f.H)), Max: image.Pt(hi(x1, f.W), hi(y1, f.H))}
}
