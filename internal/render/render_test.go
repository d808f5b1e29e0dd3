package render

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mesh"
)

func TestImageSetAtBounds(t *testing.T) {
	im := NewImage(4, 3)
	im.Set(1, 2, Color{1, 0, 0, 1})
	if got := im.At(1, 2); got != (Color{1, 0, 0, 1}) {
		t.Errorf("At = %v", got)
	}
	// Out-of-range access is a no-op / zero.
	im.Set(-1, 0, Color{1, 1, 1, 1})
	im.Set(4, 0, Color{1, 1, 1, 1})
	im.Set(0, 3, Color{1, 1, 1, 1})
	if got := im.At(-1, 0); got != (Color{}) {
		t.Errorf("out-of-range At = %v", got)
	}
}

func TestFill(t *testing.T) {
	im := NewImage(2, 2)
	im.Fill(Color{0.5, 0.5, 0.5, 1})
	for y := 0; y < 2; y++ {
		for x := 0; x < 2; x++ {
			if im.At(x, y) != (Color{0.5, 0.5, 0.5, 1}) {
				t.Fatalf("pixel (%d,%d) = %v", x, y, im.At(x, y))
			}
		}
	}
}

func TestSetIfCloser(t *testing.T) {
	im := NewImage(2, 2)
	if !im.SetIfCloser(0, 0, 5, Color{1, 0, 0, 1}) {
		t.Error("first write rejected")
	}
	if im.SetIfCloser(0, 0, 7, Color{0, 1, 0, 1}) {
		t.Error("farther write accepted")
	}
	if !im.SetIfCloser(0, 0, 3, Color{0, 0, 1, 1}) {
		t.Error("closer write rejected")
	}
	if got := im.At(0, 0); got != (Color{0, 0, 1, 1}) {
		t.Errorf("depth test result = %v", got)
	}
	if im.SetIfCloser(-1, 0, 1, Color{}) {
		t.Error("out-of-range write accepted")
	}
}

func TestWritePNGAndPPM(t *testing.T) {
	im := NewImage(8, 8)
	im.Fill(Color{0.2, 0.4, 0.6, 1})
	var png bytes.Buffer
	if err := im.WritePNG(&png); err != nil {
		t.Fatalf("WritePNG: %v", err)
	}
	if png.Len() == 0 || !bytes.HasPrefix(png.Bytes(), []byte("\x89PNG")) {
		t.Error("PNG output malformed")
	}
	var ppm bytes.Buffer
	if err := im.WritePPM(&ppm); err != nil {
		t.Fatalf("WritePPM: %v", err)
	}
	if !bytes.HasPrefix(ppm.Bytes(), []byte("P6\n8 8\n255\n")) {
		t.Errorf("PPM header wrong: %q", ppm.Bytes()[:16])
	}
	if ppm.Len() != len("P6\n8 8\n255\n")+8*8*3 {
		t.Errorf("PPM length = %d", ppm.Len())
	}
}

func TestTo8Clamps(t *testing.T) {
	if to8(-1) != 0 || to8(2) != 255 || to8(0.5) != 128 {
		t.Errorf("to8 = %d %d %d", to8(-1), to8(2), to8(0.5))
	}
	if to8(math.NaN()) != 0 || to8(math.Inf(1)) != 255 || to8(math.Inf(-1)) != 0 {
		t.Errorf("to8(NaN, +Inf, -Inf) = %d %d %d", to8(math.NaN()), to8(math.Inf(1)), to8(math.Inf(-1)))
	}
}

func TestOrbitCameraLooksAtCenter(t *testing.T) {
	b := mesh.Bounds{Lo: mesh.Vec3{0, 0, 0}, Hi: mesh.Vec3{1, 1, 1}}
	for _, az := range []float64{0, 1, 2, 3, 4, 5} {
		cam := OrbitCamera(b, az, 0.4, 2)
		if cam.Look != b.Center() {
			t.Errorf("Look = %v, want center", cam.Look)
		}
		d := cam.Eye.Sub(b.Center()).Norm()
		want := b.Diagonal() * 2
		if math.Abs(d-want) > 1e-9 {
			t.Errorf("orbit distance = %v, want %v", d, want)
		}
	}
}

func TestCameraRayThroughCenterPixel(t *testing.T) {
	b := mesh.Bounds{Lo: mesh.Vec3{0, 0, 0}, Hi: mesh.Vec3{1, 1, 1}}
	cam := OrbitCamera(b, 0.7, 0.3, 2)
	// Center ray of an odd-sized image points (almost) at the look-at
	// point.
	orig, dir := cam.Ray(50, 50, 101, 101)
	toCenter := b.Center().Sub(orig).Normalize()
	if dir.Dot(toCenter) < 0.999 {
		t.Errorf("center ray misaligned: dot = %v", dir.Dot(toCenter))
	}
	if math.Abs(dir.Norm()-1) > 1e-12 {
		t.Errorf("ray dir not unit: %v", dir.Norm())
	}
}

func TestProjectRoundTrip(t *testing.T) {
	b := mesh.Bounds{Lo: mesh.Vec3{0, 0, 0}, Hi: mesh.Vec3{1, 1, 1}}
	cam := OrbitCamera(b, 1.1, 0.4, 2.5)
	w, h := 64, 64
	// The look-at point projects to the image center.
	sx, sy, depth, ok := cam.Project(b.Center(), w, h)
	if !ok {
		t.Fatal("projection of look-at failed")
	}
	if math.Abs(sx-32) > 0.5 || math.Abs(sy-32) > 0.5 {
		t.Errorf("center projects to (%v,%v), want (32,32)", sx, sy)
	}
	if depth <= 0 {
		t.Errorf("depth = %v", depth)
	}
	// A point behind the camera fails.
	behind := cam.Eye.Add(cam.Eye.Sub(b.Center()))
	if _, _, _, ok := cam.Project(behind, w, h); ok {
		t.Error("projected point behind camera")
	}
}

// Property: rays through pixels hit the projection of their own direction:
// project(origin + t*dir) lands back on (px+0.5, py+0.5).
func TestRayProjectConsistency(t *testing.T) {
	b := mesh.Bounds{Lo: mesh.Vec3{0, 0, 0}, Hi: mesh.Vec3{1, 1, 1}}
	cam := OrbitCamera(b, 0.9, 0.2, 3)
	w, h := 32, 24
	prop := func(pxr, pyr uint8) bool {
		px := int(pxr) % w
		py := int(pyr) % h
		orig, dir := cam.Ray(px, py, w, h)
		p := orig.Add(dir.Scale(2.0))
		sx, sy, _, ok := cam.Project(p, w, h)
		if !ok {
			return false
		}
		return math.Abs(sx-(float64(px)+0.5)) < 1e-6 && math.Abs(sy-(float64(py)+0.5)) < 1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 64}); err != nil {
		t.Error(err)
	}
}

func TestDrawLineWritesPixels(t *testing.T) {
	b := mesh.Bounds{Lo: mesh.Vec3{0, 0, 0}, Hi: mesh.Vec3{1, 1, 1}}
	cam := OrbitCamera(b, 0.5, 0.3, 2)
	im := NewImage(64, 64)
	fr := cam.Frame(64, 64)
	im.DrawLineFrame(&fr, mesh.Vec3{0.2, 0.2, 0.5}, mesh.Vec3{0.8, 0.8, 0.5},
		Color{1, 0, 0, 1}, Color{0, 0, 1, 1})
	if im.MeanLuminance() == 0 {
		t.Error("DrawLineFrame drew nothing")
	}
}

func TestCoolWarmEndpoints(t *testing.T) {
	lo := CoolWarm(0)
	hi := CoolWarm(1)
	mid := CoolWarm(0.5)
	if lo[2] < lo[0] {
		t.Errorf("CoolWarm(0) should be blueish: %v", lo)
	}
	if hi[0] < hi[2] {
		t.Errorf("CoolWarm(1) should be reddish: %v", hi)
	}
	if mid[0] < 0.7 || mid[1] < 0.7 || mid[2] < 0.7 {
		t.Errorf("CoolWarm(0.5) should be light: %v", mid)
	}
	// Clamping and NaN safety.
	if CoolWarm(-3) != lo || CoolWarm(5) != hi {
		t.Error("CoolWarm does not clamp")
	}
	if c := CoolWarm(math.NaN()); c[3] != 1 {
		t.Errorf("CoolWarm(NaN) = %v", c)
	}
}

func TestNormalizer(t *testing.T) {
	n := Normalizer{Lo: 10, Hi: 20}
	if n.Norm(10) != 0 || n.Norm(20) != 1 || n.Norm(15) != 0.5 {
		t.Error("Normalizer linear mapping wrong")
	}
	if n.Norm(5) != 0 || n.Norm(25) != 1 {
		t.Error("Normalizer does not clamp")
	}
	bad := Normalizer{Lo: 5, Hi: 5}
	if bad.Norm(7) != 0.5 {
		t.Errorf("degenerate range Norm = %v, want 0.5", bad.Norm(7))
	}
}

func TestTransferFunction(t *testing.T) {
	tf := TransferFunction{Norm: Normalizer{0, 1}, OpacityScale: 0.5}
	_, aLo := tf.Eval(0)
	_, aHi := tf.Eval(1)
	if aHi <= aLo {
		t.Errorf("opacity not increasing: %v vs %v", aLo, aHi)
	}
	if aLo < 0 || aHi > 1 {
		t.Errorf("opacity out of range: %v %v", aLo, aHi)
	}
	tfBig := TransferFunction{Norm: Normalizer{0, 1}, OpacityScale: 10}
	if _, a := tfBig.Eval(1); a != 1 {
		t.Errorf("opacity not clamped: %v", a)
	}
}

func TestMeanLuminance(t *testing.T) {
	im := NewImage(2, 2)
	if im.MeanLuminance() != 0 {
		t.Error("empty image luminance nonzero")
	}
	im.Fill(Color{1, 1, 1, 1})
	if math.Abs(im.MeanLuminance()-1) > 1e-9 {
		t.Errorf("white luminance = %v", im.MeanLuminance())
	}
	empty := &Image{}
	if empty.MeanLuminance() != 0 {
		t.Error("zero-size image luminance nonzero")
	}
}
