package gradient

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/viz"
)

func linGrid(t testing.TB, n int) *mesh.UniformGrid {
	t.Helper()
	g, err := mesh.NewCubeGrid(n)
	if err != nil {
		t.Fatal(err)
	}
	f := g.AddPointField("energy")
	for id := 0; id < g.NumPoints(); id++ {
		p := g.PointPosition(id)
		f[id] = 2*p[0] - 3*p[1] + 5*p[2]
	}
	return g
}

func TestGradientOfLinearFieldIsExact(t *testing.T) {
	g := linGrid(t, 8)
	res, err := New(Options{Field: "energy"}).Run(g, viz.NewExec(par.NewPool(2)))
	if err != nil {
		t.Fatal(err)
	}
	grad := res.Grid.PointVector("gradient")
	if grad == nil {
		t.Fatal("no gradient field")
	}
	want := mesh.Vec3{2, -3, 5}
	for id, v := range grad {
		for c := 0; c < 3; c++ {
			if math.Abs(v[c]-want[c]) > 1e-9 {
				t.Fatalf("point %d gradient = %v, want %v", id, v, want)
			}
		}
	}
	mag := res.Grid.PointField("gradient_mag")
	wantMag := want.Norm()
	for id, m := range mag {
		if math.Abs(m-wantMag) > 1e-9 {
			t.Fatalf("point %d magnitude = %v, want %v", id, m, wantMag)
		}
	}
}

func TestGradientDeterministicProfile(t *testing.T) {
	r1, err := New(Options{}).Run(linGrid(t, 6), viz.NewExec(par.NewPool(1)))
	if err != nil {
		t.Fatal(err)
	}
	r4, err := New(Options{}).Run(linGrid(t, 6), viz.NewExec(par.NewPool(4)))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Profile != r4.Profile {
		t.Error("profiles differ across worker counts")
	}
	if r1.Profile.Flops == 0 || r1.Profile.LoadBytes[1] == 0 {
		t.Errorf("profile incomplete: %+v", r1.Profile)
	}
}

func TestGradientRecentersCellField(t *testing.T) {
	g, err := mesh.NewCubeGrid(4)
	if err != nil {
		t.Fatal(err)
	}
	cf := g.AddCellField("energy")
	for i := range cf {
		cf[i] = 1
	}
	res, err := New(Options{}).Run(g, viz.NewExec(par.NewPool(2)))
	if err != nil {
		t.Fatal(err)
	}
	// Constant field -> zero gradient.
	for _, v := range res.Grid.PointVector("gradient") {
		if v.Norm() > 1e-9 {
			t.Fatalf("constant field produced gradient %v", v)
		}
	}
}

func TestGradientMissingField(t *testing.T) {
	g, err := mesh.NewCubeGrid(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{Field: "nope"}).Run(g, viz.NewExec(par.NewPool(1))); err == nil {
		t.Error("missing field accepted")
	}
}

func TestGradientCustomOutputName(t *testing.T) {
	g := linGrid(t, 4)
	res, err := New(Options{Field: "energy", Output: "vort"}).Run(g, viz.NewExec(par.NewPool(1)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Grid.PointVector("vort") == nil || res.Grid.PointField("vort_mag") == nil {
		t.Error("custom output names not honored")
	}
}

// TestGradientLeavesInputAlone: the data set may be shared (the daemon
// sweeps and renders one cached grid concurrently), so Run adds no field
// to it — the outputs are on the result's own grid of the same shape.
func TestGradientLeavesInputAlone(t *testing.T) {
	g := linGrid(t, 4)
	before := g.FieldNames()
	res, err := New(Options{}).Run(g, viz.NewExec(par.NewPool(2)))
	if err != nil {
		t.Fatal(err)
	}
	after := g.FieldNames()
	if !reflect.DeepEqual(before, after) {
		t.Errorf("Run changed the input's fields: %v -> %v", before, after)
	}
	if g.PointVector("gradient") != nil {
		t.Error("Run added the gradient vector to its input")
	}
	if res.Grid == g {
		t.Fatal("Result.Grid is the input grid")
	}
	if res.Grid.Dims != g.Dims || res.Grid.Origin != g.Origin || res.Grid.Spacing != g.Spacing {
		t.Errorf("Result.Grid is %v/%v/%v, input %v/%v/%v",
			res.Grid.Dims, res.Grid.Origin, res.Grid.Spacing, g.Dims, g.Origin, g.Spacing)
	}
}
