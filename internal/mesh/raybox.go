package mesh

import "math"

// SafeRecip returns 1/x, mapping zero (including -0) to +Inf so the slab
// test below degenerates correctly for axis-parallel rays. Precomputing
// a ray's three inverse direction components hoists the divisions out of
// every box test — the BVH traversal performs one test per visited node
// and the volume renderer one per macrocell, so both share this helper.
func SafeRecip(x float64) float64 {
	if x == 0 {
		return math.Inf(1)
	}
	return 1 / x
}

// RaySlab clips the parametric interval [t0, t1] of the ray from
// (ox, oy, oz) against bounds b, given the SafeRecip inverses (ix, iy, iz)
// of its direction, returning the clipped interval and whether any of it
// survives. The ray and its results stay in scalars: this runs once per
// ray or box, and a Vec3 argument would pass through memory.
//
// The test is NaN-safe for the one NaN the inverse-direction form can
// produce: an axis-parallel ray whose origin sits exactly on a slab face
// yields 0·Inf = NaN for that face, and the comparisons below treat the
// NaN as "no constraint", which classifies on-face origins as inside the
// slab (the conservative choice for both traversal and marching). Rays
// with NaN components in the origin or a non-finite direction are the
// caller's bug; they degrade to "no constraint" rather than corrupting
// the interval.
func RaySlab(ox, oy, oz, ix, iy, iz float64, b *Bounds, t0, t1 float64) (float64, float64, bool) {
	t0, t1 = slab(b.Lo[0], b.Hi[0], ox, ix, t0, t1)
	t0, t1 = slab(b.Lo[1], b.Hi[1], oy, iy, t0, t1)
	t0, t1 = slab(b.Lo[2], b.Hi[2], oz, iz, t0, t1)
	return t0, t1, t0 <= t1
}

// slab clips [t0, t1] against one axis' slab [lo, hi].
func slab(lo, hi, o, inv, t0, t1 float64) (float64, float64) {
	ta := (lo - o) * inv
	tb := (hi - o) * inv
	if ta > tb {
		ta, tb = tb, ta
	}
	if ta > t0 {
		t0 = ta
	}
	if tb < t1 {
		t1 = tb
	}
	return t0, t1
}
