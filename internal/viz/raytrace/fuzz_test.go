package raytrace

import (
	"math"
	"testing"

	"repro/internal/mesh"
	"repro/internal/par"
)

// FuzzBVHMatchesBruteForce builds the BVH of a chain of geometrically
// spaced triangles (chainTris: chain of them, factor apart, a tree about
// as deep as the chain is long) plus a soup of small triangles (nine
// signed bytes each, in sixteenths), and traces from both sides, along
// its normal, the ray through every triangle's centroid: the traversal
// must hit exactly when brute force does, at the same distance. Zero-area
// triangles, coincident centroids and trees deeper than Intersect's fixed
// stack are all in the committed corpus
// (testdata/fuzz/FuzzBVHMatchesBruteForce).
func FuzzBVHMatchesBruteForce(f *testing.F) {
	f.Fuzz(func(t *testing.T, soup []byte, chain uint8, factor float64) {
		// Keep every coordinate below 1e100, so the intersection test's
		// products stay finite.
		if !(factor >= 1) {
			factor = 1
		}
		factor = min(factor, math.Pow(1e100, 1/float64(max(int(chain), 1))))
		m := chainTris(int(chain), factor)
		for i := 0; i+9 <= len(soup) && i < 9*200; i += 9 {
			b := int32(len(m.Points))
			for v := 0; v < 3; v++ {
				c := soup[i+3*v:]
				m.Points = append(m.Points, mesh.Vec3{float64(int8(c[0])) / 16, float64(int8(c[1])) / 16, float64(int8(c[2])) / 16})
				m.Scalars = append(m.Scalars, 1)
			}
			m.Tris = append(m.Tris, [3]int32{b, b + 1, b + 2})
		}
		if m.NumTris() == 0 {
			return
		}
		pool := par.NewPool(2)
		bvh := BuildBVHWith(m, pool)
		pool.Close()
		for ti, tr := range m.Tris {
			p0, p1, p2 := m.Points[tr[0]], m.Points[tr[1]], m.Points[tr[2]]
			c := p0.Add(p1).Add(p2).Scale(1.0 / 3)
			dir := p1.Sub(p0).Cross(p2.Sub(p0)).Normalize()
			if dir == (mesh.Vec3{}) {
				dir = mesh.Vec3{1, 0, 0}
			}
			dist := 1 + 2*max(math.Abs(c[0]), math.Abs(c[1]), math.Abs(c[2]))
			for _, d := range []mesh.Vec3{dir, dir.Scale(-1)} {
				orig := c.Sub(d.Scale(dist))
				hb, okB := BruteForceIntersect(m, orig, d)
				hv, okV := bvh.Intersect(m, orig, d, nil)
				// Box culling rounds apart from the triangle test, so two
				// hits within rounding of each other may resolve either
				// way; the distance may not.
				if okB != okV || okB && math.Abs(hb.T-hv.T) > 1e-9*hb.T {
					t.Fatalf("%d triangles, ray at triangle %d from %v along %v: bvh %+v (%v), brute force %+v (%v)", m.NumTris(), ti, orig, d, hv, okV, hb, okB)
				}
			}
		}
	})
}
