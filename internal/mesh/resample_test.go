package mesh

import (
	"math"
	"slices"
	"testing"
)

func TestResampleCubeReproducesLinearFields(t *testing.T) {
	g := mustCube(t, 8)
	pf := g.AddPointField("lin")
	for id := 0; id < g.NumPoints(); id++ {
		p := g.PointPosition(id)
		pf[id] = 1 + 2*p[0] - p[1] + 3*p[2]
	}
	vf := g.AddPointVector("vel")
	for id := 0; id < g.NumPoints(); id++ {
		p := g.PointPosition(id)
		vf[id] = Vec3{p[0], -p[1], 2 * p[2]}
	}

	up, err := ResampleCube(g, 16)
	if err != nil {
		t.Fatal(err)
	}
	if up.NumCells() != 16*16*16 {
		t.Fatalf("upsampled cells = %d", up.NumCells())
	}
	upf := up.PointField("lin")
	for id := 0; id < up.NumPoints(); id++ {
		p := up.PointPosition(id)
		want := 1 + 2*p[0] - p[1] + 3*p[2]
		if math.Abs(upf[id]-want) > 1e-9 {
			t.Fatalf("point %d: %v, want %v", id, upf[id], want)
		}
	}
	uvf := up.PointVector("vel")
	for id := 0; id < up.NumPoints(); id++ {
		p := up.PointPosition(id)
		want := Vec3{p[0], -p[1], 2 * p[2]}
		if !vecAlmostEq(uvf[id], want, 1e-9) {
			t.Fatalf("vector point %d: %v, want %v", id, uvf[id], want)
		}
	}
}

func TestResampleCubeCellFields(t *testing.T) {
	g := mustCube(t, 4)
	cf := g.AddCellField("e")
	for i := range cf {
		cf[i] = 7.5
	}
	up, err := ResampleCube(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	ucf := up.CellField("e")
	if ucf == nil {
		t.Fatal("cell field missing after resample")
	}
	for i, v := range ucf {
		if math.Abs(v-7.5) > 1e-9 {
			t.Fatalf("cell %d = %v, want 7.5", i, v)
		}
	}
	if up.PointField("e") == nil {
		t.Error("point version of cell field missing")
	}
}

// TestResampleCubeLeavesSourceAlone: a cached grid is shared read-only
// between goroutines, so resampling one must not store the recentered
// point versions of its cell fields into it — and must still produce what
// a source that already carried them produces.
func TestResampleCubeLeavesSourceAlone(t *testing.T) {
	g := mustCube(t, 4)
	cf := g.AddCellField("e")
	for i := range cf {
		cf[i] = float64(i % 7)
	}
	g.AddPointField("p")
	up, err := ResampleCube(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	if names := g.FieldNames(); !slices.Equal(names, []string{"cell e", "point p"}) {
		t.Fatalf("source fields after ResampleCube = %v, want [cell e, point p]", names)
	}
	if _, err := g.CellToPoint("e"); err != nil {
		t.Fatal(err)
	}
	stored, err := ResampleCube(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range [][2][]float64{
		{up.PointField("e"), stored.PointField("e")},
		{up.CellField("e"), stored.CellField("e")},
	} {
		for i := range f[0] {
			if f[0][i] != f[1][i] {
				t.Fatalf("element %d: %v from the bare source, %v from the recentered one", i, f[0][i], f[1][i])
			}
		}
	}
}

func TestResampleCubeDownsamples(t *testing.T) {
	g := mustCube(t, 16)
	pf := g.AddPointField("lin")
	for id := 0; id < g.NumPoints(); id++ {
		pf[id] = g.PointPosition(id)[0]
	}
	down, err := ResampleCube(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	dpf := down.PointField("lin")
	for id := 0; id < down.NumPoints(); id++ {
		want := down.PointPosition(id)[0]
		if math.Abs(dpf[id]-want) > 1e-9 {
			t.Fatalf("downsampled point %d = %v, want %v", id, dpf[id], want)
		}
	}
}

func TestResampleCubeRejectsNonUnitSource(t *testing.T) {
	g, err := NewUniformGrid([3]int{3, 3, 3}, Vec3{0, 0, 0}, Vec3{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ResampleCube(g, 4); err == nil {
		t.Error("non-unit-cube source accepted")
	}
}

// TestResampleCubeMatchesOracle holds every resampled value, by float
// bits, to the by-name oracle probed at PointPosition / CellCenter of its
// id — up (16 → 24, 40: the division path) and down (16 → 8).
func TestResampleCubeMatchesOracle(t *testing.T) {
	g := samplerTestGrid(t, 16)
	cf := g.AddCellField("c")
	for i := range cf {
		cf[i] = math.Sin(float64(i))
	}
	pc := g.recenter(cf)
	for _, n := range []int{24, 40, 8} {
		out, err := ResampleCube(g, n)
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < out.NumPoints(); id++ {
			p := out.PointPosition(id)
			s, _ := g.SampleScalar("s", p)
			v, _ := g.SampleVector("v", p)
			c, _ := SampleScalarField(g, pc, p)
			if math.Float64bits(out.PointField("s")[id]) != math.Float64bits(s) ||
				out.PointVector("v")[id] != v ||
				math.Float64bits(out.PointField("c")[id]) != math.Float64bits(c) {
				t.Fatalf("n=%d point %d at %v: got %v %v %v, oracle %v %v %v", n, id, p,
					out.PointField("s")[id], out.PointVector("v")[id], out.PointField("c")[id], s, v, c)
			}
		}
		for id := 0; id < out.NumCells(); id++ {
			p := out.CellCenter(id)
			if want, _ := SampleScalarField(g, pc, p); math.Float64bits(out.CellField("c")[id]) != math.Float64bits(want) {
				t.Fatalf("n=%d cell %d at %v: got %v, oracle %v", n, id, p, out.CellField("c")[id], want)
			}
		}
	}
}
