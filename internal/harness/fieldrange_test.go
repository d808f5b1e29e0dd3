package harness

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/render"
	"repro/internal/viz"
	"repro/internal/viz/advect"
	"repro/internal/viz/contour"
	"repro/internal/viz/histogram"
	"repro/internal/viz/isovolume"
	"repro/internal/viz/raytrace"
	"repro/internal/viz/threshold"
	"repro/internal/viz/volren"
)

// rangeGrid is an 8³ grid whose "energy" point and cell fields are
// value(id, x), x the point's x coordinate or the cell's x index.
func rangeGrid(t *testing.T, value func(id int, x float64) float64) *mesh.UniformGrid {
	g, err := mesh.NewCubeGrid(8)
	if err != nil {
		t.Fatal(err)
	}
	pf, cf := g.AddPointField("energy"), g.AddCellField("energy")
	for id := range pf {
		pf[id] = value(id, g.PointPosition(id)[0])
	}
	for c := range cf {
		i, _, _ := g.CellIJK(c)
		cf[c] = value(c, float64(i))
	}
	return g
}

// The fields rangeGrid builds: x with every 13th value +Inf or −Inf;
// x with every 13th value +Inf and the next −Inf, so the two meet on an
// edge along x; and only +Inf, −Inf and NaN.
var (
	infiniteValues = func(id int, x float64) float64 {
		switch {
		case id%26 == 0:
			return math.Inf(1)
		case id%13 == 0:
			return math.Inf(-1)
		}
		return x
	}
	opposedValues = func(id int, x float64) float64 {
		switch id % 13 {
		case 0:
			return math.Inf(1)
		case 1:
			return math.Inf(-1)
		}
		return x
	}
	nonFiniteValues = func(id int, _ float64) float64 {
		return []float64{math.Inf(1), math.Inf(-1), math.NaN()}[id%3]
	}
	constantValues = func(int, float64) float64 { return 0.5 }
)

// finite reports whether every v is neither infinite nor NaN.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return false
		}
	}
	return true
}

// finiteFrame renders one frame of the image workload name over g and
// checks every channel of every pixel is finite.
func finiteFrame(t *testing.T, g *mesh.UniformGrid, name string, ex *viz.Exec) {
	frame, err := Frames(g, name, 0, ex)
	if err != nil {
		t.Fatal(err)
	}
	cam, _ := render.OrbitView(g.Bounds(), 0, 10)
	for i, c := range frame(nil, cam, 24, 24, ex).Pix {
		if !finite(c[:]...) {
			t.Fatalf("%s: pixel %d is %v", name, i, c)
		}
	}
}

// finiteRange is the least and greatest finite value of f, worked out
// apart from mesh.FieldRange, and whether there are any.
func finiteRange(f []float64) (lo, hi float64, any bool) {
	for _, v := range f {
		if !finite(v) {
			continue
		}
		if !any || v < lo {
			lo = v
		}
		if !any || v > hi {
			hi = v
		}
		any = true
	}
	return lo, hi, any
}

// linesFilter is a filter whose output is fixed streamlines, the input
// of Figure 1's streamline panel.
type linesFilter struct{ lines *mesh.LineSet }

func (f linesFilter) Name() string { return "Particle Advection" }
func (f linesFilter) Run(*mesh.UniformGrid, *viz.Exec) (*viz.Result, error) {
	return &viz.Result{Lines: f.lines}, nil
}

// streamlinePanel renders Figure 1's streamline panel of lines across g
// whose point scalars are s.
func streamlinePanel(t *testing.T, g *mesh.UniformGrid, s []float64, ex *viz.Exec) *render.Image {
	lines := mesh.NewLineSet()
	for i := 0; i+4 <= len(s); i += 4 {
		var pts []mesh.Vec3
		for k := 0; k < 4; k++ {
			pts = append(pts, g.PointPosition((i+k)*37%g.NumPoints()))
		}
		lines.AppendLine(pts, s[i:i+4])
	}
	cam, _ := render.OrbitView(g.Bounds(), 0, 10)
	im, err := renderOne(g, linesFilter{lines}, "Particle Advection", cam, 48, ex)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// normalizes checks a normalizer built from a field's range: the finite
// values' extremes, ±Inf at the ends; the middle for every value of a
// field without two distinct finite values.
func normalizes(t *testing.T, who string, n render.Normalizer, f []float64) {
	lo, hi, any := finiteRange(f)
	if !any || lo == hi {
		for _, v := range []float64{math.Inf(-1), 0, math.Inf(1), math.NaN()} {
			if got := n.Norm(v); got != 0.5 {
				t.Errorf("%s: a field without a finite spread normalizes %v to %v, want 0.5", who, v, got)
			}
		}
		return
	}
	if n.Lo != lo || n.Hi != hi || n.Norm(math.Inf(-1)) != 0 || n.Norm(math.Inf(1)) != 1 {
		t.Errorf("%s: normalizer [%v, %v] maps -Inf, +Inf to %v, %v; want [%v, %v], 0, 1",
			who, n.Lo, n.Hi, n.Norm(math.Inf(-1)), n.Norm(math.Inf(1)), lo, hi)
	}
}

// fieldRangeCallers checks every caller of mesh.FieldRange on g: each
// builds its default from the finite values only, and one without
// finite values gets an empty range it handles.
var fieldRangeCallers = []struct {
	name  string
	check func(t *testing.T, g *mesh.UniformGrid, ex *viz.Exec)
}{
	{"contour isovalues", func(t *testing.T, g *mesh.UniformGrid, ex *viz.Exec) {
		res, err := contour.New(contour.Options{}).Run(g, ex)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi, any := finiteRange(g.PointField("energy"))
		if !any {
			if res.Tris.NumTris() != 0 || res.Profile.Launches != 0 {
				t.Errorf("no finite values: %d triangles over %d launches, want no isovalue", res.Tris.NumTris(), res.Profile.Launches)
			}
			return
		}
		if lo == hi {
			if res.Tris.NumTris() != 0 {
				t.Errorf("a constant field gave %d triangles, want no crossing", res.Tris.NumTris())
			}
			return
		}
		if res.Tris.NumTris() == 0 || res.Profile.Launches != 10 {
			t.Errorf("%d triangles over %d launches, want a surface from ten isovalues", res.Tris.NumTris(), res.Profile.Launches)
		}
		// A crossing into an infinite corner carries the finite end's
		// value, and one between −Inf and +Inf its isovalue.
		for i, p := range res.Tris.Points {
			if s := res.Tris.Scalars[i]; math.IsNaN(p[0]+p[1]+p[2]) || math.IsInf(s, 0) || math.IsNaN(s) {
				t.Fatalf("point %d at %v carries %v", i, p, s)
			}
		}
	}},
	{"isovolume range", func(t *testing.T, g *mesh.UniformGrid, ex *viz.Exec) {
		res, err := isovolume.New(isovolume.Options{}).Run(g, ex)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, any := finiteRange(g.PointField("energy")); any != (res.Cells.NumCells() > 0) {
			t.Errorf("finite values %v, kept %d cells", any, res.Cells.NumCells())
		}
		// As contour's, a cut between −Inf and +Inf carries its level.
		for i, s := range res.Cells.Scalars {
			if math.IsNaN(s) {
				t.Fatalf("point %d at %v carries NaN", i, res.Cells.Points[i])
			}
		}
	}},
	{"threshold range", func(t *testing.T, g *mesh.UniformGrid, ex *viz.Exec) {
		res, err := threshold.New(threshold.Options{}).Run(g, ex)
		if err != nil {
			t.Fatal(err)
		}
		cf := g.CellField("energy")
		lo, hi, _ := finiteRange(cf)
		want := 0
		for _, v := range cf {
			if v >= lo+0.5*(hi-lo) && v <= hi && !math.IsInf(v, 0) {
				want++
			}
		}
		if res.Cells.NumCells() != want {
			t.Errorf("kept %d cells, want the %d finite ones in the upper half of the finite range", res.Cells.NumCells(), want)
		}
	}},
	{"volren normalizer", func(t *testing.T, g *mesh.UniformGrid, _ *viz.Exec) {
		normalizes(t, "volren", volren.TransferFor(g.PointField("energy")).Norm, g.PointField("energy"))
	}},
	{"raytrace normalizer", func(t *testing.T, g *mesh.UniformGrid, ex *viz.Exec) {
		tris, err := mesh.GridExternalFaces(g, "energy")
		if err != nil {
			t.Fatal(err)
		}
		normalizes(t, "raytrace", raytrace.NewSceneWith(tris, ex.Pool).Norm, tris.Scalars)
	}},
	{"histogram bins", func(t *testing.T, g *mesh.UniformGrid, ex *viz.Exec) {
		res, err := histogram.New(histogram.Options{Bins: 8}).Run(g, ex)
		if err != nil {
			t.Fatal(err)
		}
		var sum int64
		for _, n := range res.Histogram {
			sum += n
		}
		pos, neg := int64(0), int64(0)
		for _, v := range g.CellField("energy") {
			if math.IsInf(v, 1) {
				pos++
			} else if math.IsInf(v, -1) {
				neg++
			}
		}
		if sum != int64(g.NumCells()) || res.Histogram[7] < pos || res.Histogram[0] < neg {
			t.Errorf("bins %v: want %d cells, the %d at +Inf in the last bin and the %d at -Inf in the first", res.Histogram, g.NumCells(), pos, neg)
		}
	}},
	{"volume rendering frame", func(t *testing.T, g *mesh.UniformGrid, ex *viz.Exec) {
		finiteFrame(t, g, "Volume Rendering", ex)
	}},
	{"ray tracing frame", func(t *testing.T, g *mesh.UniformGrid, ex *viz.Exec) {
		finiteFrame(t, g, "Ray Tracing", ex)
	}},
	{"particle advection", func(t *testing.T, g *mesh.UniformGrid, ex *viz.Exec) {
		// The velocity is (e, 1/2, 1/4) of the field's energy e: a sample
		// at an infinite corner with weight 0 is Inf·0 = NaN, and a NaN
		// position must leave the domain rather than index a cell.
		vg, err := mesh.NewCubeGrid(8)
		if err != nil {
			t.Fatal(err)
		}
		vel := vg.AddPointVector("velocity")
		for id, e := range g.PointField("energy") {
			vel[id] = mesh.Vec3{e, 0.5, 0.25}
		}
		for _, adaptive := range []bool{false, true} {
			f := advect.New(advect.Options{NumParticles: 64, NumSteps: 100, Adaptive: adaptive})
			res, err := f.Run(vg, ex)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range res.Lines.Points {
				if !finite(p[0], p[1], p[2], res.Lines.Scalars[i]) {
					t.Fatalf("adaptive %v: point %d at %v has speed %v", adaptive, i, p, res.Lines.Scalars[i])
				}
			}
			d, err := dist.Advect(vg, f, 2, dist.AdvectOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !linesBitEqual(res.Lines, d.Lines) {
				t.Errorf("adaptive %v: 2 ranks gave %d points, one rank %d, or different bits", adaptive, len(d.Lines.Points), len(res.Lines.Points))
			}
		}
	}},
	{"fig1 streamline colours", func(t *testing.T, g *mesh.UniformGrid, ex *viz.Exec) {
		// Infinite scalars colour as the ends of the finite range; a
		// field without finite values colours as a constant one.
		s := g.PointField("energy")[:64]
		lo, hi, any := finiteRange(s)
		clamped := make([]float64, len(s))
		for i, v := range s {
			if any {
				clamped[i] = min(max(v, lo), hi)
			}
		}
		got, want := streamlinePanel(t, g, s, ex), streamlinePanel(t, g, clamped, ex)
		for i := range got.Pix {
			if got.Pix[i] != want.Pix[i] {
				t.Fatalf("pixel %d is %v, %v with the scalars clamped to the finite range", i, got.Pix[i], want.Pix[i])
			}
		}
	}},
}

// On a field holding ±Inf, every caller of mesh.FieldRange takes its
// default from the finite values.
func TestFieldRangeCallersOnInfiniteFields(t *testing.T) {
	testFieldRangeCallers(t, rangeGrid(t, infiniteValues))
}

// On a field whose +Inf and −Inf values meet on an edge, and no NaN, a
// contour or isovolume cut between them carries its level, not NaN.
func TestFieldRangeCallersOnOpposedInfinities(t *testing.T) {
	testFieldRangeCallers(t, rangeGrid(t, opposedValues))
}

// On a field holding only ±Inf and NaN, FieldRange's range is empty and
// every caller handles it: no isovalues, nothing kept, mid-range colours,
// every cell binned.
func TestFieldRangeCallersOnNonFiniteFields(t *testing.T) {
	testFieldRangeCallers(t, rangeGrid(t, nonFiniteValues))
}

// On a constant field every caller still works: contour and isovolume
// cut nothing, threshold keeps every cell, colours are mid-range.
func TestFieldRangeCallersOnConstantFields(t *testing.T) {
	testFieldRangeCallers(t, rangeGrid(t, constantValues))
}

func testFieldRangeCallers(t *testing.T, g *mesh.UniformGrid) {
	pool := par.NewPool(2)
	defer pool.Close()
	for _, c := range fieldRangeCallers {
		t.Run(c.name, func(t *testing.T) { c.check(t, g, viz.NewExec(pool)) })
	}
}
