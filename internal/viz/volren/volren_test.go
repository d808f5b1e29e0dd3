package volren

import (
	"math"
	"testing"

	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/render"
	"repro/internal/viz"
)

func blobGrid(t testing.TB, n int) *mesh.UniformGrid {
	t.Helper()
	g, err := mesh.NewCubeGrid(n)
	if err != nil {
		t.Fatal(err)
	}
	f := g.AddPointField("energy")
	c := mesh.Vec3{0.5, 0.5, 0.5}
	for id := 0; id < g.NumPoints(); id++ {
		d := g.PointPosition(id).Sub(c).Norm()
		f[id] = math.Exp(-10 * d * d)
	}
	return g
}

// rayBox is the forward ray orig + t·dir (t ≥ 0) against b, through
// the marcher's slab routine.
func rayBox(orig, dir mesh.Vec3, b mesh.Bounds) (t0, t1 float64, ok bool) {
	return mesh.RaySlab(orig[0], orig[1], orig[2],
		mesh.SafeRecip(dir[0]), mesh.SafeRecip(dir[1]), mesh.SafeRecip(dir[2]), &b, 0, math.Inf(1))
}

func TestRayBoxOverlap(t *testing.T) {
	b := mesh.Bounds{Lo: mesh.Vec3{0, 0, 0}, Hi: mesh.Vec3{1, 1, 1}}
	t0, t1, ok := rayBox(mesh.Vec3{0.5, 0.5, -1}, mesh.Vec3{0, 0, 1}, b)
	if !ok || math.Abs(t0-1) > 1e-12 || math.Abs(t1-2) > 1e-12 {
		t.Errorf("rayBox = %v %v %v", t0, t1, ok)
	}
	// Miss.
	if _, _, ok := rayBox(mesh.Vec3{2, 2, -1}, mesh.Vec3{0, 0, 1}, b); ok {
		t.Error("missing ray reported overlap")
	}
	// Axis-parallel ray inside slab.
	if _, _, ok := rayBox(mesh.Vec3{0.5, 0.5, -1}, mesh.Vec3{0, 1, 0}, b); ok {
		t.Error("parallel outside ray reported overlap")
	}
	// Ray starting inside.
	t0, _, ok = rayBox(mesh.Vec3{0.5, 0.5, 0.5}, mesh.Vec3{0, 0, 1}, b)
	if !ok || t0 != 0 {
		t.Errorf("inside ray t0 = %v, ok=%v", t0, ok)
	}
}

func TestVolumeRenderingProducesImage(t *testing.T) {
	g := blobGrid(t, 12)
	ex := viz.NewExec(par.NewPool(2))
	field := g.PointField("energy")
	lo, hi := mesh.FieldRange(field)
	tf := render.TransferFunction{Norm: render.Normalizer{Lo: lo, Hi: hi}, OpacityScale: 0.5}
	cam := render.OrbitCamera(g.Bounds(), 0.5, 0.35, 2.0)
	im := NewRenderer(g, field, tf, ex).RenderImageInto(nil, cam, 32, 32, ex)
	// Center pixel sees the blob: more opaque/colored than the corner.
	center := im.At(16, 16)
	corner := im.At(0, 0)
	if center == corner {
		t.Error("blob invisible: center equals corner")
	}
	if im.MeanLuminance() <= 0 {
		t.Error("black image")
	}
}

func TestVolrenFilterRun(t *testing.T) {
	g := blobGrid(t, 10)
	f := New(Options{Field: "energy", Images: 4, Width: 24, Height: 24})
	res, err := f.Run(g, viz.NewExec(par.NewPool(2)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Images != 4 {
		t.Errorf("Images = %d", res.Images)
	}
	p := res.Profile
	// One launch per frame plus the macrocell-grid build pass.
	if p.Launches != 5 {
		t.Errorf("Launches = %d, want 5 (4 frames + macrocell build)", p.Launches)
	}
	// Sampling is resident-load dominated and flop-rich.
	if p.LoadBytes[3] == 0 {
		t.Error("no resident loads recorded")
	}
	if p.Flops == 0 {
		t.Error("no flops recorded")
	}
	// Working set equals the full point field.
	if p.WorkingSetBytes != uint64(g.NumPoints())*8 {
		t.Errorf("WorkingSetBytes = %d, want %d", p.WorkingSetBytes, g.NumPoints()*8)
	}
}

func TestVolrenRecentersCellField(t *testing.T) {
	g, err := mesh.NewCubeGrid(6)
	if err != nil {
		t.Fatal(err)
	}
	cf := g.AddCellField("energy")
	for i := range cf {
		cf[i] = 1
	}
	res, err := New(Options{Images: 1, Width: 8, Height: 8}).Run(g, viz.NewExec(par.NewPool(1)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Images != 1 {
		t.Error("run failed on cell field")
	}
}

func TestVolrenMissingField(t *testing.T) {
	g, err := mesh.NewCubeGrid(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{Field: "nope", Images: 1}).Run(g, viz.NewExec(par.NewPool(1))); err == nil {
		t.Error("missing field accepted")
	}
}

func TestVolrenDeterministicProfile(t *testing.T) {
	f := New(Options{Field: "energy", Images: 2, Width: 16, Height: 16})
	r1, err := f.Run(blobGrid(t, 8), viz.NewExec(par.NewPool(1)))
	if err != nil {
		t.Fatal(err)
	}
	r4, err := f.Run(blobGrid(t, 8), viz.NewExec(par.NewPool(4)))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Profile != r4.Profile {
		t.Errorf("profiles differ across worker counts:\n%+v\n%+v", r1.Profile, r4.Profile)
	}
}

func TestOpacityScaleAffectsImage(t *testing.T) {
	g := blobGrid(t, 10)
	field := g.PointField("energy")
	lo, hi := mesh.FieldRange(field)
	cam := render.OrbitCamera(g.Bounds(), 0.5, 0.35, 2.0)
	ex := viz.NewExec(par.NewPool(2))
	thin := NewRenderer(g, field, render.TransferFunction{Norm: render.Normalizer{Lo: lo, Hi: hi}, OpacityScale: 0.05}, ex).RenderImageInto(nil, cam, 16, 16, ex)
	thick := NewRenderer(g, field, render.TransferFunction{Norm: render.Normalizer{Lo: lo, Hi: hi}, OpacityScale: 0.9}, ex).RenderImageInto(nil, cam, 16, 16, ex)
	if thin.MeanLuminance() == thick.MeanLuminance() {
		t.Error("opacity scale had no effect")
	}
}
