package mesh

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func vecAlmostEq(a, b Vec3, tol float64) bool {
	return almostEq(a[0], b[0], tol) && almostEq(a[1], b[1], tol) && almostEq(a[2], b[2], tol)
}

func TestVecArithmetic(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{4, -5, 6}
	if got := a.Add(b); got != (Vec3{5, -3, 9}) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != (Vec3{-3, 7, -3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != (Vec3{2, 4, 6}) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Mul(b); got != (Vec3{4, -10, 18}) {
		t.Errorf("Mul = %v", got)
	}
	if got := a.Dot(b); got != 4-10+18 {
		t.Errorf("Dot = %v", got)
	}
}

func TestVecCross(t *testing.T) {
	x := Vec3{1, 0, 0}
	y := Vec3{0, 1, 0}
	if got := x.Cross(y); got != (Vec3{0, 0, 1}) {
		t.Errorf("x cross y = %v, want z", got)
	}
	if got := y.Cross(x); got != (Vec3{0, 0, -1}) {
		t.Errorf("y cross x = %v, want -z", got)
	}
}

func TestVecNormalize(t *testing.T) {
	v := Vec3{3, 4, 0}
	n := v.Normalize()
	if !almostEq(n.Norm(), 1, 1e-12) {
		t.Errorf("|normalize(v)| = %v", n.Norm())
	}
	if got := (Vec3{}).Normalize(); got != (Vec3{}) {
		t.Errorf("normalize(0) = %v, want 0", got)
	}
}

func TestVecLerp(t *testing.T) {
	a := Vec3{0, 0, 0}
	b := Vec3{2, 4, 8}
	if got := a.Lerp(b, 0.5); got != (Vec3{1, 2, 4}) {
		t.Errorf("Lerp(0.5) = %v", got)
	}
	if got := a.Lerp(b, 0); got != a {
		t.Errorf("Lerp(0) = %v", got)
	}
	if got := a.Lerp(b, 1); got != b {
		t.Errorf("Lerp(1) = %v", got)
	}
}

func TestBoundsExtend(t *testing.T) {
	b := EmptyBounds()
	if b.Valid() {
		t.Error("empty bounds should be invalid")
	}
	b.Extend(Vec3{1, 2, 3})
	b.Extend(Vec3{-1, 5, 0})
	if !b.Valid() {
		t.Error("bounds invalid after Extend")
	}
	if b.Lo != (Vec3{-1, 2, 0}) || b.Hi != (Vec3{1, 5, 3}) {
		t.Errorf("bounds = %v", b)
	}
	if !b.Contains(Vec3{0, 3, 1}) {
		t.Error("Contains failed for interior point")
	}
	if b.Contains(Vec3{2, 3, 1}) {
		t.Error("Contains accepted exterior point")
	}
	if got := b.Center(); got != (Vec3{0, 3.5, 1.5}) {
		t.Errorf("Center = %v", got)
	}
}

func TestVec3MinMax(t *testing.T) {
	a, b := Vec3{0, 0, 0}, Vec3{-1, 0.5, 2}
	if got := a.Min(b); got != (Vec3{-1, 0, 0}) {
		t.Errorf("Min = %v", got)
	}
	if got := a.Max(b); got != (Vec3{0, 0.5, 2}) {
		t.Errorf("Max = %v", got)
	}
}

// Property: cross product is perpendicular to both inputs.
func TestCrossPerpendicularProperty(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		clampf := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 1
			}
			return math.Mod(x, 1e3)
		}
		a := Vec3{clampf(ax), clampf(ay), clampf(az)}
		b := Vec3{clampf(bx), clampf(by), clampf(bz)}
		c := a.Cross(b)
		scale := a.Norm()*b.Norm() + 1
		return math.Abs(c.Dot(a)) < 1e-6*scale*scale && math.Abs(c.Dot(b)) < 1e-6*scale*scale
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Lerp endpoints reproduce the inputs and the midpoint is the
// average.
func TestLerpProperty(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		clampf := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 0
			}
			return math.Mod(x, 1e6)
		}
		a := Vec3{clampf(ax), clampf(ay), clampf(az)}
		b := Vec3{clampf(bx), clampf(by), clampf(bz)}
		mid := a.Lerp(b, 0.5)
		avg := a.Add(b).Scale(0.5)
		tol := 1e-9 * (a.Norm() + b.Norm() + 1)
		return vecAlmostEq(a.Lerp(b, 0), a, tol) &&
			vecAlmostEq(a.Lerp(b, 1), b, tol) &&
			vecAlmostEq(mid, avg, tol)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
