package render

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mesh"
)

// requireFootprintExact checks every pixel outside fr's footprint of b:
// its ray, generated as the renderers generate it, must fail the slab
// test against b over [0, +Inf). It returns the pixels skipped.
func requireFootprintExact(t *testing.T, fr *Frame, b *mesh.Bounds, what string) int {
	t.Helper()
	fp := fr.Footprint(b)
	if fp.Min.X < 0 || fp.Min.Y < 0 || fp.Max.X > fr.W || fp.Max.Y > fr.H || fp.Dx() < 0 || fp.Dy() < 0 {
		t.Fatalf("%s: footprint %v outside the %dx%d image", what, fp, fr.W, fr.H)
	}
	skipped := 0
	for py := 0; py < fr.H; py++ {
		for px := 0; px < fr.W; px++ {
			if px >= fp.Min.X && px < fp.Max.X && py >= fp.Min.Y && py < fp.Max.Y {
				continue
			}
			skipped++
			dx, dy, dz := fr.Ray(px, py)
			if _, _, hit := mesh.RaySlab(fr.Eye[0], fr.Eye[1], fr.Eye[2], mesh.SafeRecip(dx), mesh.SafeRecip(dy), mesh.SafeRecip(dz), b, 0, math.Inf(1)); hit {
				t.Fatalf("%s: pixel (%d, %d) outside footprint %v meets the box %v", what, px, py, fp, *b)
			}
		}
	}
	return skipped
}

// TestFootprintExactRandomFrames draws boxes (a quarter of the axes flat)
// and cameras — free ones, eyes inside the box included, and orbits at
// any distance — with a field of view of 10–110° and images of 1–160
// pixels a side.
func TestFootprintExactRandomFrames(t *testing.T) {
	const frames = 3200
	rng := rand.New(rand.NewSource(55))
	skipped, partial, whole := 0, 0, 0
	for i := 0; i < frames; i++ {
		var b mesh.Bounds
		for ax := 0; ax < 3; ax++ {
			b.Lo[ax] = rng.Float64()*4 - 2
			b.Hi[ax] = b.Lo[ax]
			if rng.Intn(4) != 0 {
				b.Hi[ax] += rng.Float64() * 3
			}
		}
		var cam Camera
		if i%2 == 0 {
			eye := mesh.Vec3{rng.Float64()*12 - 6, rng.Float64()*12 - 6, rng.Float64()*12 - 6}
			if i%10 == 0 { // inside the box, or on its faces when flat
				for ax := 0; ax < 3; ax++ {
					eye[ax] = b.Lo[ax] + rng.Float64()*(b.Hi[ax]-b.Lo[ax])
				}
			}
			look := b.Center().Add(mesh.Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()})
			up := mesh.Vec3{0, 0, 1}
			if rng.Intn(2) == 0 {
				up = mesh.Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
			}
			cam = Camera{Eye: eye, Look: look, Up: up}
		} else {
			cam = OrbitCamera(b, rng.Float64()*2*math.Pi, rng.Float64()*2.4-1.2, 0.2+rng.Float64()*3)
		}
		cam.FOVDeg = 10 + rng.Float64()*100
		w, h := 1+rng.Intn(160), 1+rng.Intn(160)
		fr := cam.Frame(w, h)
		n := requireFootprintExact(t, &fr, &b, "random frame")
		skipped += n
		switch {
		case n == 0:
			whole++
		case n < w*h:
			partial++
		}
	}
	t.Logf("%d frames: %d pixels skipped; %d frames partly skipped, %d traced whole", frames, skipped, partial, whole)
	if partial < frames/4 || whole < frames/20 {
		t.Errorf("%d of %d frames partly skipped and %d traced whole: the draw no longer exercises both", partial, frames, whole)
	}
}

// TestFootprintExactStudyOrbits covers every frame the study renders of
// the 16³–64³ data sets: the 50-frame orbit at the image sizes in use,
// and Figure 1's camera.
func TestFootprintExactStudyOrbits(t *testing.T) {
	skipped := 0
	for _, n := range []int{16, 24, 32, 40, 48, 64} {
		g, err := mesh.NewCubeGrid(n)
		if err != nil {
			t.Fatal(err)
		}
		b := g.Bounds()
		for _, size := range []int{16, 32, 64, 128} {
			for i := 0; i < 50; i++ {
				cam, _ := OrbitView(b, i, 50)
				fr := cam.Frame(size, size)
				skipped += requireFootprintExact(t, &fr, &b, "orbit frame")
			}
			fr := OrbitCamera(b, 0.7, 0.5, 1.6).Frame(size, size)
			skipped += requireFootprintExact(t, &fr, &b, "Figure 1 frame")
		}
	}
	if skipped == 0 {
		t.Error("no study frame skips a pixel")
	}
	t.Logf("%d pixels skipped", skipped)
}
