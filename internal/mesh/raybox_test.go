package mesh

import (
	"math"
	"math/rand"
	"testing"
)

func unitBox() Bounds {
	return Bounds{Lo: Vec3{0, 0, 0}, Hi: Vec3{1, 1, 1}}
}

// rayBox is the forward ray orig + t·dir (t ≥ 0) against b through
// RaySlab, the way the volume renderer calls it.
func rayBox(orig, dir Vec3, b Bounds) (t0, t1 float64, ok bool) {
	return RaySlab(orig[0], orig[1], orig[2], SafeRecip(dir[0]), SafeRecip(dir[1]), SafeRecip(dir[2]), &b, 0, math.Inf(1))
}

func TestSafeRecip(t *testing.T) {
	if a, b, c := SafeRecip(2), SafeRecip(-4), SafeRecip(0); a != 0.5 || b != -0.25 || !math.IsInf(c, 1) {
		t.Errorf("SafeRecip = %v %v %v", a, b, c)
	}
	// Negative zero must also map to +Inf, not -Inf.
	if inv := SafeRecip(math.Copysign(0, -1)); !math.IsInf(inv, 1) {
		t.Errorf("SafeRecip(-0) = %v", inv)
	}
}

func TestRayBoxBasicOverlap(t *testing.T) {
	b := unitBox()
	t0, t1, ok := rayBox(Vec3{0.5, 0.5, -1}, Vec3{0, 0, 1}, b)
	if !ok || math.Abs(t0-1) > 1e-12 || math.Abs(t1-2) > 1e-12 {
		t.Errorf("rayBox = %v %v %v", t0, t1, ok)
	}
	if _, _, ok := rayBox(Vec3{2, 2, -1}, Vec3{0, 0, 1}, b); ok {
		t.Error("missing ray reported overlap")
	}
	// Ray starting inside clips t0 to 0.
	t0, _, ok = rayBox(Vec3{0.5, 0.5, 0.5}, Vec3{0, 0, 1}, b)
	if !ok || t0 != 0 {
		t.Errorf("inside ray t0 = %v, ok = %v", t0, ok)
	}
	// Diagonal ray through opposite corners.
	d := Vec3{1, 1, 1}.Normalize()
	t0, t1, ok = rayBox(Vec3{-1, -1, -1}, d, b)
	if !ok || t1 <= t0 {
		t.Errorf("diagonal ray = %v %v %v", t0, t1, ok)
	}
}

func TestRayBoxAxisParallel(t *testing.T) {
	b := unitBox()
	// Parallel and outside the slab: miss on both sides.
	if _, _, ok := rayBox(Vec3{0.5, 2, -1}, Vec3{0, 0, 1}, b); ok {
		t.Error("parallel ray above the box reported overlap")
	}
	if _, _, ok := rayBox(Vec3{0.5, -2, -1}, Vec3{0, 0, 1}, b); ok {
		t.Error("parallel ray below the box reported overlap")
	}
	// Parallel and inside the slab: hit with the other axes' clipping.
	t0, t1, ok := rayBox(Vec3{0.25, 0.25, -1}, Vec3{0, 0, 1}, b)
	if !ok || math.Abs(t0-1) > 1e-12 || math.Abs(t1-2) > 1e-12 {
		t.Errorf("parallel inside ray = %v %v %v", t0, t1, ok)
	}
}

// The 0·Inf = NaN corner: an axis-parallel ray whose origin lies exactly
// on a slab face must count as inside the slab, not poison the interval.
func TestRayBoxOnFaceOrigin(t *testing.T) {
	b := unitBox()
	for _, orig := range []Vec3{{0, 0.5, -1}, {1, 0.5, -1}} {
		t0, t1, ok := rayBox(orig, Vec3{0, 0, 1}, b)
		if !ok || math.Abs(t0-1) > 1e-12 || math.Abs(t1-2) > 1e-12 {
			t.Errorf("on-face origin %v: got %v %v %v", orig, t0, t1, ok)
		}
	}
	// Both coordinates on faces, marching along the remaining axis.
	t0, t1, ok := rayBox(Vec3{0, 1, 0.5}, Vec3{0, 0, 1}, b)
	if !ok || t0 != 0 || math.Abs(t1-0.5) > 1e-12 {
		t.Errorf("edge origin: got %v %v %v", t0, t1, ok)
	}
}

func TestRaySlabClipsExistingInterval(t *testing.T) {
	b := unitBox()
	orig := Vec3{0.5, 0.5, -1}
	dir := Vec3{0, 0, 1}
	ix, iy, iz := SafeRecip(dir[0]), SafeRecip(dir[1]), SafeRecip(dir[2])
	// Interval already tighter than the box on one side.
	t0, t1, ok := RaySlab(orig[0], orig[1], orig[2], ix, iy, iz, &b, 1.5, math.Inf(1))
	if !ok || t0 != 1.5 || math.Abs(t1-2) > 1e-12 {
		t.Errorf("clip lo: %v %v %v", t0, t1, ok)
	}
	// tBest-style far clip excludes the box entirely.
	if _, _, ok := RaySlab(orig[0], orig[1], orig[2], ix, iy, iz, &b, 0, 0.5); ok {
		t.Error("box beyond tBest reported overlap")
	}
}

func TestRayBoxMatchesContainsForRandomRays(t *testing.T) {
	b := Bounds{Lo: Vec3{-0.3, 0.1, -2}, Hi: Vec3{1.5, 0.9, -0.5}}
	// A deterministic lattice of rays; every reported interval midpoint
	// must lie inside the box.
	for i := 0; i < 200; i++ {
		fi := float64(i)
		orig := Vec3{math.Sin(fi) * 3, math.Cos(fi*1.7) * 3, math.Sin(fi*0.3) * 4}
		dir := Vec3{math.Cos(fi * 0.9), math.Sin(fi * 1.3), math.Cos(fi * 2.1)}.Normalize()
		t0, t1, ok := rayBox(orig, dir, b)
		if !ok {
			continue
		}
		mid := orig.Add(dir.Scale((t0 + t1) / 2))
		const eps = 1e-9
		for a := 0; a < 3; a++ {
			if mid[a] < b.Lo[a]-eps || mid[a] > b.Hi[a]+eps {
				t.Fatalf("ray %d: interval midpoint %v outside box", i, mid)
			}
		}
	}
}

// The slab test as it was first written, over Vec3 values: the oracle
// RaySlab and SafeRecip are held to bit for bit.

func safeInvDirVec(dir Vec3) Vec3 {
	inv := Vec3{}
	for a := 0; a < 3; a++ {
		if dir[a] == 0 {
			inv[a] = math.Inf(1)
		} else {
			inv[a] = 1 / dir[a]
		}
	}
	return inv
}

func rayBoxInvVec(orig, inv Vec3, b Bounds, t0, t1 float64) (float64, float64, bool) {
	for a := 0; a < 3; a++ {
		ta := (b.Lo[a] - orig[a]) * inv[a]
		tb := (b.Hi[a] - orig[a]) * inv[a]
		if ta > tb {
			ta, tb = tb, ta
		}
		if ta > t0 {
			t0 = ta
		}
		if tb < t1 {
			t1 = tb
		}
	}
	return t0, t1, t0 <= t1
}

func rayBoxVec(orig, dir Vec3, b Bounds) (t0, t1 float64, ok bool) {
	return rayBoxInvVec(orig, safeInvDirVec(dir), b, 0, math.Inf(1))
}

// TestRayBoxMatchesVec3Oracle compares the slab test with the oracle by
// float bits on seeded random rays and boxes, on axis-parallel rays
// (either sign of zero) starting on a face, edge or corner of the box —
// the NaN slab — and on clipped intervals [t0, t1].
func TestRayBoxMatchesVec3Oracle(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	coord := func() float64 { return rng.Float64()*4 - 2 }
	negZero := math.Copysign(0, -1)
	type ray struct {
		orig, dir Vec3
		b         Bounds
	}
	var rays []ray
	for i := 0; i < 2000; i++ {
		lo := Vec3{coord(), coord(), coord()}
		b := Bounds{Lo: lo, Hi: lo.Add(Vec3{rng.Float64(), rng.Float64(), rng.Float64()})}
		orig := Vec3{coord(), coord(), coord()}
		dir := Vec3{coord(), coord(), coord()}
		if i%2 == 0 {
			dir = b.Lo.Lerp(b.Hi, rng.Float64()).Sub(orig) // aimed into the box
		}
		rays = append(rays, ray{orig, dir.Normalize(), b})
	}
	box := unitBox()
	for _, orig := range []Vec3{{0, 0.5, -1}, {1, 0.5, -1}, {0, 1, 0.5}, {1, 1, 1}, {0, 0, 0}, {0.5, 0.5, 0.5}, {0.5, 0, 2}} {
		for a := 0; a < 3; a++ {
			for _, sign := range []float64{1, -1} {
				dir := Vec3{negZero, 0, negZero}
				dir[a] = sign
				rays = append(rays, ray{orig, dir, box})
			}
		}
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	hits := 0
	for i, r := range rays {
		w0, w1, wok := rayBoxVec(r.orig, r.dir, r.b)
		g0, g1, gok := rayBox(r.orig, r.dir, r.b)
		if gok != wok || !same(g0, w0) || !same(g1, w1) {
			t.Fatalf("ray %d %+v: got (%v, %v, %v), oracle (%v, %v, %v)", i, r, g0, g1, gok, w0, w1, wok)
		}
		if wok {
			hits++
		}
		inv := safeInvDirVec(r.dir)
		for _, clip := range [][2]float64{{0.5, 1.5}, {1.5, math.Inf(1)}, {0, 0.25}} {
			w0, w1, wok := rayBoxInvVec(r.orig, inv, r.b, clip[0], clip[1])
			g0, g1, gok := RaySlab(r.orig[0], r.orig[1], r.orig[2],
				SafeRecip(r.dir[0]), SafeRecip(r.dir[1]), SafeRecip(r.dir[2]), &r.b, clip[0], clip[1])
			if gok != wok || !same(g0, w0) || !same(g1, w1) {
				t.Fatalf("ray %d %+v clipped to %v: got (%v, %v, %v), oracle (%v, %v, %v)", i, r, clip, g0, g1, gok, w0, w1, wok)
			}
		}
	}
	if hits < 100 {
		t.Fatalf("only %d of %d rays hit their box", hits, len(rays))
	}
}
