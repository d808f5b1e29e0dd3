package render

import (
	"math"
	"testing"

	"repro/internal/mesh"
)

func testCam() Camera {
	b := mesh.Bounds{Lo: mesh.Vec3{0, 0, 0}, Hi: mesh.Vec3{1, 1, 1}}
	return OrbitCamera(b, 0.7, 0.35, 2.0)
}

func TestFrameRayMatchesCamera(t *testing.T) {
	cam := testCam()
	const w, h = 64, 48
	fr := cam.Frame(w, h)
	for py := 0; py < h; py += 7 {
		for px := 0; px < w; px += 5 {
			co, cd := cam.Ray(px, py, w, h)
			fo, fd := fr.Ray(px, py)
			if co != fo {
				t.Fatalf("origin mismatch at (%d,%d): %v vs %v", px, py, co, fo)
			}
			if cd.Sub(fd).Norm() > 1e-14 {
				t.Fatalf("direction mismatch at (%d,%d): %v vs %v", px, py, cd, fd)
			}
		}
	}
}

func TestFrameProjectMatchesCamera(t *testing.T) {
	cam := testCam()
	const w, h = 64, 48
	fr := cam.Frame(w, h)
	pts := []mesh.Vec3{
		{0.5, 0.5, 0.5}, {0, 0, 0}, {1, 1, 1}, {0.2, 0.9, 0.1},
		cam.Eye.Add(cam.Eye.Sub(cam.Look)), // behind the eye
	}
	for _, p := range pts {
		cx, cy, cz, cok := cam.Project(p, w, h)
		fx, fy, fz, fok := fr.Project(p)
		if cok != fok {
			t.Fatalf("ok mismatch for %v: %v vs %v", p, cok, fok)
		}
		if !cok {
			continue
		}
		if math.Abs(cx-fx) > 1e-9 || math.Abs(cy-fy) > 1e-9 || math.Abs(cz-fz) > 1e-12 {
			t.Fatalf("projection mismatch for %v: (%v,%v,%v) vs (%v,%v,%v)", p, cx, cy, cz, fx, fy, fz)
		}
	}
}

// Round trip: a ray through a pixel center projects back to that pixel.
func TestFrameRayProjectRoundTrip(t *testing.T) {
	cam := testCam()
	const w, h = 32, 32
	fr := cam.Frame(w, h)
	for py := 0; py < h; py += 3 {
		for px := 0; px < w; px += 3 {
			orig, dir := fr.Ray(px, py)
			p := orig.Add(dir.Scale(2.5))
			sx, sy, _, ok := fr.Project(p)
			if !ok {
				t.Fatalf("pixel (%d,%d): point behind eye", px, py)
			}
			if math.Abs(sx-(float64(px)+0.5)) > 1e-6 || math.Abs(sy-(float64(py)+0.5)) > 1e-6 {
				t.Fatalf("pixel (%d,%d) round-tripped to (%v,%v)", px, py, sx, sy)
			}
		}
	}
}

func TestColorLUTMatchesCoolWarm(t *testing.T) {
	lut := CoolWarmLUT(512)
	for i := 0; i <= 10000; i++ {
		x := float64(i) / 10000
		want := CoolWarm(x)
		got := lut.Eval(x)
		for c := 0; c < 4; c++ {
			if math.Abs(want[c]-got[c]) > 1e-12 {
				t.Fatalf("t=%v channel %d: %v vs %v", x, c, want[c], got[c])
			}
		}
	}
	// Clamping and NaN stay finite.
	for _, x := range []float64{-1, 2, math.NaN()} {
		got := lut.Eval(x)
		for c := 0; c < 4; c++ {
			if math.IsNaN(got[c]) || math.IsInf(got[c], 0) {
				t.Fatalf("Eval(%v) = %v", x, got)
			}
		}
	}
}

func TestTFLUTMatchesEval(t *testing.T) {
	for _, transparent := range []float64{0, 0.35} {
		tf := TransferFunction{
			Norm:         Normalizer{Lo: -2, Hi: 5},
			OpacityScale: 0.25,
			Transparent:  transparent,
		}
		lut := tf.LUT()
		for i := 0; i <= 5000; i++ {
			v := -3 + float64(i)/5000*9 // sweeps past both ends of the range
			wc, wa := tf.Eval(v)
			gc, ga := lut.Eval(v)
			if wa != ga {
				t.Fatalf("transparent=%v v=%v: alpha %v vs %v", transparent, v, wa, ga)
			}
			for c := 0; c < 4; c++ {
				if math.Abs(wc[c]-gc[c]) > 1e-12 {
					t.Fatalf("transparent=%v v=%v channel %d: %v vs %v", transparent, v, c, wc[c], gc[c])
				}
			}
		}
	}
}

func TestMaxOpacityBoundsEval(t *testing.T) {
	tf := TransferFunction{
		Norm:         Normalizer{Lo: 0, Hi: 1},
		OpacityScale: 0.25,
		Transparent:  0.4,
	}
	// Any scalar in [lo, hi] must evaluate at or below the bound.
	ranges := [][2]float64{{0, 0.1}, {0.3, 0.45}, {0.2, 0.39}, {0.9, 1}, {0.5, 0.2}}
	for _, r := range ranges {
		bound := tf.MaxOpacity(r[0], r[1])
		lo, hi := r[0], r[1]
		if hi < lo {
			lo, hi = hi, lo
		}
		for i := 0; i <= 200; i++ {
			v := lo + (hi-lo)*float64(i)/200
			if _, a := tf.Eval(v); a > bound {
				t.Fatalf("range %v: Eval(%v) alpha %v exceeds bound %v", r, v, a, bound)
			}
		}
	}
	// A range entirely below the threshold is provably invisible.
	if b := tf.MaxOpacity(0, 0.3); b != 0 {
		t.Errorf("sub-threshold range bound = %v, want 0", b)
	}
	// A range straddling the threshold is not.
	if b := tf.MaxOpacity(0.3, 0.5); b == 0 {
		t.Error("straddling range reported invisible")
	}
}

// One frame shared by every segment of an image draws what a frame built
// per segment does, pixel for pixel and depth for depth.
func TestDrawLineFrameSharedFrameMatchesPerSegment(t *testing.T) {
	cam := testCam()
	pts := []mesh.Vec3{{0.1, 0.2, 0.3}, {0.9, 0.7, 0.8}, {0.4, 0.9, 0.1}, {0.5, 0.5, 0.5}, {0.1, 0.2, 0.3}}
	cols := []Color{{1, 0, 0, 1}, {0, 0, 1, 1}, {0, 1, 0, 1}, {1, 1, 1, 1}, {1, 0, 1, 1}}
	shared := NewImage(48, 40)
	perSeg := NewImage(48, 40)
	fr := cam.Frame(48, 40)
	for i := 0; i+1 < len(pts); i++ {
		shared.DrawLineFrame(&fr, pts[i], pts[i+1], cols[i], cols[i+1])
		own := cam.Frame(48, 40)
		perSeg.DrawLineFrame(&own, pts[i], pts[i+1], cols[i], cols[i+1])
	}
	if shared.MeanLuminance() == 0 {
		t.Fatal("DrawLineFrame drew nothing")
	}
	for i := range shared.Pix {
		if shared.Pix[i] != perSeg.Pix[i] || shared.Depth[i] != perSeg.Depth[i] {
			t.Fatalf("pixel %d differs: %v/%v vs %v/%v", i, shared.Pix[i], shared.Depth[i], perSeg.Pix[i], perSeg.Depth[i])
		}
	}
}
