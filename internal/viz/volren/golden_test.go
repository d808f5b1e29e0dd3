package volren

import (
	"math"
	"testing"

	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/render"
	"repro/internal/viz"
)

// maxChannelDeviation renders one view through both samplers and returns
// the maximum per-channel absolute difference.
func maxChannelDeviation(t *testing.T, g *mesh.UniformGrid, tf render.TransferFunction,
	cam render.Camera, w, h int) float64 {
	t.Helper()
	ex := viz.NewExec(par.NewPool(4))
	field := g.PointField("energy")
	ref := RenderSegmentsReference(nil, g, field, tf, cam, w, h, ex)
	fast := NewRenderer(g, field, tf, ex).RenderSegmentsInto(nil, cam, w, h, ex)
	worst := 0.0
	for i := range ref.Pix {
		for c := 0; c < 4; c++ {
			if d := math.Abs(ref.Pix[i][c] - fast.Pix[i][c]); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// The acceptance bar: over a 64³ orbit frame the macrocell marcher stays
// within 1e-6 per channel of the retained reference sampler — with the
// default everything-visible transfer function (no skipping possible) and
// with a transparency threshold that makes most of the blob's outskirts
// provably skippable.
func TestGoldenFastMatchesReference64(t *testing.T) {
	if testing.Short() {
		t.Skip("64³ golden frame is a long test")
	}
	g := blobGrid(t, 64)
	lo, hi := mesh.FieldRange(g.PointField("energy"))
	for _, transparent := range []float64{0, 0.35} {
		tf := render.TransferFunction{
			Norm:         render.Normalizer{Lo: lo, Hi: hi},
			OpacityScale: 0.25,
			Transparent:  transparent,
		}
		cam := render.OrbitCamera(g.Bounds(), 0.7, 0.35, 2.0)
		if worst := maxChannelDeviation(t, g, tf, cam, 128, 128); worst > 1e-6 {
			t.Errorf("transparent=%v: max per-channel deviation %g > 1e-6", transparent, worst)
		}
	}
}

// A faster sweep across several orbit angles and odd image shapes at 32³.
func TestGoldenFastMatchesReferenceOrbit32(t *testing.T) {
	g := blobGrid(t, 32)
	lo, hi := mesh.FieldRange(g.PointField("energy"))
	for _, transparent := range []float64{0, 0.5} {
		tf := render.TransferFunction{
			Norm:         render.Normalizer{Lo: lo, Hi: hi},
			OpacityScale: 0.4,
			Transparent:  transparent,
		}
		for i := 0; i < 8; i++ {
			az := 2 * math.Pi * float64(i) / 8
			cam := render.OrbitCamera(g.Bounds(), az, 0.35, 2.0)
			if worst := maxChannelDeviation(t, g, tf, cam, 61, 47); worst > 1e-6 {
				t.Errorf("transparent=%v az=%v: max deviation %g > 1e-6", transparent, az, worst)
			}
		}
	}
}

// The skipping must actually skip: with a transparency threshold over the
// blob field, the marcher's profile must record strictly less resident
// sampling traffic than the reference while producing the same image.
func TestMacrocellSkippingReducesSampling(t *testing.T) {
	g := blobGrid(t, 32)
	field := g.PointField("energy")
	lo, hi := mesh.FieldRange(field)
	tf := render.TransferFunction{
		Norm:         render.Normalizer{Lo: lo, Hi: hi},
		OpacityScale: 0.25,
		Transparent:  0.35,
	}
	cam := render.OrbitCamera(g.Bounds(), 0.7, 0.35, 2.0)

	exRef := viz.NewExec(par.NewPool(2))
	RenderSegmentsReference(nil, g, field, tf, cam, 64, 64, exRef)
	refProf := exRef.Drain()

	exFast := viz.NewExec(par.NewPool(2))
	r := NewRenderer(g, field, tf, exFast)
	exFast.Drain() // discard the build pass; compare per-frame work only
	r.RenderSegmentsInto(nil, cam, 64, 64, exFast)
	fastProf := exFast.Drain()

	if fastProf.Flops >= refProf.Flops {
		t.Errorf("marcher flops %d not below reference %d", fastProf.Flops, refProf.Flops)
	}
	if fastProf.LoadBytes[3] >= refProf.LoadBytes[3] {
		t.Errorf("marcher resident loads %d not below reference %d",
			fastProf.LoadBytes[3], refProf.LoadBytes[3])
	}
}

func TestMacroGridRangesCoverSamples(t *testing.T) {
	g := blobGrid(t, 20)
	field := g.PointField("energy")
	ex := viz.NewExec(par.NewPool(2))
	m := BuildMacroGrid(g, field, 8, ex)
	if m.Brick() != 8 {
		t.Fatalf("brick = %d", m.Brick())
	}
	// Sample the volume densely; every value must lie inside its brick's
	// recorded range (bricks share faces, so face samples must satisfy
	// both owners — checking the containing brick suffices for the
	// skipping proof).
	cd := g.CellDims()
	sampler := mesh.ScalarSamplerFor(g, field)
	for trial := 0; trial < 4000; trial++ {
		fi := float64(trial)
		p := mesh.Vec3{
			0.5 + 0.5*math.Sin(fi*0.77),
			0.5 + 0.5*math.Sin(fi*1.31),
			0.5 + 0.5*math.Sin(fi*2.17),
		}
		v, ok := sampler.Sample(p)
		if !ok {
			continue
		}
		ci := min(int(p[0]/g.Spacing[0]), cd[0]-1)
		cj := min(int(p[1]/g.Spacing[1]), cd[1]-1)
		ck := min(int(p[2]/g.Spacing[2]), cd[2]-1)
		bid := ((ck/8)*m.dims[1]+cj/8)*m.dims[0] + ci/8
		lo, hi := m.Range(bid)
		if v < lo-1e-12 || v > hi+1e-12 {
			t.Fatalf("sample %v = %v outside brick %d range [%v, %v]", p, v, bid, lo, hi)
		}
	}
}

// The macrocell build runs under the worker pool; exercised with -race in
// the Makefile race target.
func TestBuildMacroGridParallelMatchesSerial(t *testing.T) {
	g := blobGrid(t, 24)
	field := g.PointField("energy")
	serial := BuildMacroGrid(g, field, 8, viz.NewExec(par.NewPool(1)))
	parallel := BuildMacroGrid(g, field, 8, viz.NewExec(par.NewPool(8)))
	if serial.NumBricks() != parallel.NumBricks() {
		t.Fatalf("brick counts differ: %d vs %d", serial.NumBricks(), parallel.NumBricks())
	}
	for i := 0; i < serial.NumBricks(); i++ {
		slo, shi := serial.Range(i)
		plo, phi := parallel.Range(i)
		if slo != plo || shi != phi {
			t.Fatalf("brick %d ranges differ: [%v,%v] vs [%v,%v]", i, slo, shi, plo, phi)
		}
	}
}

// A NaN scalar is transparent in both samplers: one NaN point in a 16³
// field used to turn every pixel whose ray sampled near it into NaN (and
// its ray never terminated early). Now the samplers agree and no pixel,
// segment or flattened, is NaN.
func TestNaNScalarIsTransparent(t *testing.T) {
	g := blobGrid(t, 16)
	field := g.PointField("energy")
	lo, hi := mesh.FieldRange(field)
	center := g.PointID(8, 8, 8)
	field[center] = math.NaN()
	for _, transparent := range []float64{0, 0.35} {
		tf := render.TransferFunction{
			Norm:         render.Normalizer{Lo: lo, Hi: hi},
			OpacityScale: 0.25,
			Transparent:  transparent,
		}
		cam := render.OrbitCamera(g.Bounds(), 0.7, 0.35, 2.0)
		ex := viz.NewExec(par.NewPool(2))
		ref := RenderSegmentsReference(nil, g, field, tf, cam, 32, 32, ex)
		r := NewRenderer(g, field, tf, ex)
		fast := r.RenderSegmentsInto(nil, cam, 32, 32, ex)
		for i := range ref.Pix {
			for c := 0; c < 4; c++ {
				if math.IsNaN(ref.Pix[i][c]) || math.IsNaN(fast.Pix[i][c]) {
					t.Fatalf("transparent=%v pixel %d: NaN (reference %v, marcher %v)", transparent, i, ref.Pix[i], fast.Pix[i])
				}
				if d := math.Abs(ref.Pix[i][c] - fast.Pix[i][c]); d > 1e-6 {
					t.Fatalf("transparent=%v pixel %d channel %d: samplers differ by %g", transparent, i, c, d)
				}
			}
		}
		BlendBackground(fast)
		for i, c := range fast.Pix {
			if math.IsNaN(c[0]) || math.IsNaN(c[1]) || math.IsNaN(c[2]) {
				t.Fatalf("transparent=%v: flattened pixel %d is %v", transparent, i, c)
			}
		}
	}
}

// The opacity bound stays conservative for a NaN range end: a brick whose
// maximum is NaN is never proved transparent, so never skipped.
func TestMaxOpacityNaNNeverSkips(t *testing.T) {
	tf := render.TransferFunction{Norm: render.Normalizer{Lo: 0, Hi: 1}, OpacityScale: 0.25, Transparent: 0.5}
	for _, r := range [][2]float64{{0, math.NaN()}, {math.NaN(), math.NaN()}, {0.9, math.NaN()}} {
		if b := tf.MaxOpacity(r[0], r[1]); b == 0 {
			t.Errorf("MaxOpacity(%v, %v) = 0: a NaN brick would be skipped", r[0], r[1])
		}
	}
}
