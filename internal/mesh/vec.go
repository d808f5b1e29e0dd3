// Package mesh provides the scientific-visualization data model used by all
// eight algorithms in this reproduction: uniform structured grids carrying
// point- and cell-centered fields (the CloverLeaf output), and the
// unstructured outputs the filters produce (triangle meshes, polylines, and
// mixed-cell unstructured grids). It is the Go stand-in for the VTK-m data
// model the paper builds on.
package mesh

import "math"

// Vec3 is a point or vector in R³.
type Vec3 [3]float64

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v[0] + w[0], v[1] + w[1], v[2] + w[2]} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v[0] - w[0], v[1] - w[1], v[2] - w[2]} }

// Scale returns s·v.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{s * v[0], s * v[1], s * v[2]} }

// Dot returns v·w.
func (v Vec3) Dot(w Vec3) float64 { return v[0]*w[0] + v[1]*w[1] + v[2]*w[2] }

// Cross returns v×w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		v[1]*w[2] - v[2]*w[1],
		v[2]*w[0] - v[0]*w[2],
		v[0]*w[1] - v[1]*w[0],
	}
}

// Norm returns |v|.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Normalize returns v/|v|, or the zero vector if |v| is zero.
func (v Vec3) Normalize() Vec3 {
	n := v.Norm()
	if n == 0 {
		return Vec3{}
	}
	return v.Scale(1 / n)
}

// Lerp returns (1-t)·v + t·w.
func (v Vec3) Lerp(w Vec3, t float64) Vec3 {
	return Vec3{
		v[0] + t*(w[0]-v[0]),
		v[1] + t*(w[1]-v[1]),
		v[2] + t*(w[2]-v[2]),
	}
}

// Bounds is an axis-aligned bounding box.
type Bounds struct {
	Lo, Hi Vec3
}

// EmptyBounds returns the bounds of no points, which any point widens.
func EmptyBounds() Bounds {
	inf := math.Inf(1)
	return Bounds{Lo: Vec3{inf, inf, inf}, Hi: Vec3{-inf, -inf, -inf}}
}

// Center returns the midpoint of the box.
func (b Bounds) Center() Vec3 { return b.Lo.Add(b.Hi).Scale(0.5) }

// Size returns the box extents.
func (b Bounds) Size() Vec3 { return b.Hi.Sub(b.Lo) }

// Diagonal returns the length of the box diagonal.
func (b Bounds) Diagonal() float64 { return b.Size().Norm() }

// Contains reports whether p lies inside or on the boundary of the box.
func (b Bounds) Contains(p Vec3) bool {
	return p[0] >= b.Lo[0] && p[0] <= b.Hi[0] &&
		p[1] >= b.Lo[1] && p[1] <= b.Hi[1] &&
		p[2] >= b.Lo[2] && p[2] <= b.Hi[2]
}
