package contour

import (
	"math"
	"testing"

	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/viz"
)

// sphereGrid builds a grid whose point field is the distance from the
// center, so isosurfaces are spheres.
func sphereGrid(t testing.TB, n int) *mesh.UniformGrid {
	t.Helper()
	g, err := mesh.NewCubeGrid(n)
	if err != nil {
		t.Fatal(err)
	}
	f := g.AddPointField("r")
	c := mesh.Vec3{0.5, 0.5, 0.5}
	for id := 0; id < g.NumPoints(); id++ {
		f[id] = g.PointPosition(id).Sub(c).Norm()
	}
	return g
}

func TestContourSphere(t *testing.T) {
	g := sphereGrid(t, 12)
	ex := viz.NewExec(par.NewPool(2))
	f := New(Options{Field: "r", Isovalues: []float64{0.3}})
	res, err := f.Run(g, ex)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tris == nil || res.Tris.NumTris() == 0 {
		t.Fatal("no triangles produced")
	}
	if err := res.Tris.Validate(); err != nil {
		t.Fatalf("invalid output mesh: %v", err)
	}
	// Every vertex lies (approximately) on the radius-0.3 sphere.
	c := mesh.Vec3{0.5, 0.5, 0.5}
	h := 1.0 / 12
	for _, p := range res.Tris.Points {
		r := p.Sub(c).Norm()
		if math.Abs(r-0.3) > h {
			t.Fatalf("contour vertex at radius %v, want 0.3 +- %v", r, h)
		}
	}
	// Scalars carry the contoured field: all equal the isovalue.
	for _, s := range res.Tris.Scalars {
		if math.Abs(s-0.3) > 1e-9 {
			t.Fatalf("carried scalar = %v, want 0.3", s)
		}
	}
	if res.Elements != int64(g.NumCells()) {
		t.Errorf("Elements = %d, want %d", res.Elements, g.NumCells())
	}
}

func TestContourSurfaceAreaConverges(t *testing.T) {
	// The area of the radius-0.3 isosurface should approach 4*pi*r^2.
	area := func(m *mesh.TriMesh) float64 {
		total := 0.0
		for _, tr := range m.Tris {
			a := m.Points[tr[0]]
			b := m.Points[tr[1]]
			c := m.Points[tr[2]]
			total += b.Sub(a).Cross(c.Sub(a)).Norm() / 2
		}
		return total
	}
	g := sphereGrid(t, 24)
	ex := viz.NewExec(par.NewPool(4))
	res, err := New(Options{Field: "r", Isovalues: []float64{0.3}}).Run(g, ex)
	if err != nil {
		t.Fatal(err)
	}
	want := 4 * math.Pi * 0.3 * 0.3
	got := area(res.Tris)
	if math.Abs(got-want)/want > 0.1 {
		t.Errorf("isosurface area = %v, want ~%v (within 10%%)", got, want)
	}
}

func TestContourDeterministicAcrossWorkers(t *testing.T) {
	g := sphereGrid(t, 8)
	r1, err := New(Options{Field: "r", Isovalues: []float64{0.25}}).Run(g, viz.NewExec(par.NewPool(1)))
	if err != nil {
		t.Fatal(err)
	}
	r4, err := New(Options{Field: "r", Isovalues: []float64{0.25}}).Run(g, viz.NewExec(par.NewPool(4)))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Tris.NumTris() != r4.Tris.NumTris() {
		t.Fatalf("triangle count differs: %d vs %d", r1.Tris.NumTris(), r4.Tris.NumTris())
	}
	for i := range r1.Tris.Points {
		if r1.Tris.Points[i] != r4.Tris.Points[i] {
			t.Fatalf("point %d differs between worker counts", i)
		}
	}
	// Profiles identical too (counters are sums).
	if r1.Profile != r4.Profile {
		t.Errorf("profiles differ between worker counts:\n%+v\n%+v", r1.Profile, r4.Profile)
	}
}

func TestContourDefaultIsovalues(t *testing.T) {
	g := sphereGrid(t, 8)
	ex := viz.NewExec(par.NewPool(2))
	f := New(Options{Field: "r"}) // 10 default isovalues
	res, err := f.Run(g, ex)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tris.NumTris() == 0 {
		t.Error("default-isovalue contour empty")
	}
	if res.Profile.Launches != 10 {
		t.Errorf("Launches = %d, want 10 (one per isovalue)", res.Profile.Launches)
	}
}

func TestContourMissingField(t *testing.T) {
	g := sphereGrid(t, 4)
	if _, err := New(Options{Field: "nope"}).Run(g, viz.NewExec(par.NewPool(1))); err == nil {
		t.Error("missing field accepted")
	}
}

func TestContourRecentersCellField(t *testing.T) {
	g, err := mesh.NewCubeGrid(6)
	if err != nil {
		t.Fatal(err)
	}
	cf := g.AddCellField("e")
	for c := range cf {
		i, _, _ := g.CellIJK(c)
		cf[c] = float64(i)
	}
	res, err := New(Options{Field: "e", Isovalues: []float64{2.5}}).Run(g, viz.NewExec(par.NewPool(2)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Tris.NumTris() == 0 {
		t.Error("cell-field contour empty")
	}
}

func TestContourProfileHasWork(t *testing.T) {
	g := sphereGrid(t, 8)
	res, err := New(Options{Field: "r", Isovalues: []float64{0.3}}).Run(g, viz.NewExec(par.NewPool(2)))
	if err != nil {
		t.Fatal(err)
	}
	p := res.Profile
	if p.Flops == 0 || p.LoadBytes[1] == 0 || p.TotalStoreBytes() == 0 {
		t.Errorf("profile missing work: %+v", p)
	}
	if p.WorkingSetBytes == 0 {
		t.Error("working set missing")
	}
}

func TestSpreadIsovalues(t *testing.T) {
	v := SpreadIsovalues(0, 11, 10)
	if len(v) != 10 {
		t.Fatalf("len = %d", len(v))
	}
	if v[0] != 1 || v[9] != 10 {
		t.Errorf("spread = %v", v)
	}
	for i := 1; i < len(v); i++ {
		if v[i] <= v[i-1] {
			t.Fatalf("not increasing: %v", v)
		}
	}
}

func TestContourEmptyIsosurface(t *testing.T) {
	g := sphereGrid(t, 6)
	res, err := New(Options{Field: "r", Isovalues: []float64{99}}).Run(g, viz.NewExec(par.NewPool(2)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Tris.NumTris() != 0 {
		t.Errorf("out-of-range isovalue produced %d triangles", res.Tris.NumTris())
	}
}

// A steady-state contour cycle (10 isovalues on a warm pool, as in the
// paper's 288-configuration sweep) must not allocate per chunk: each
// isovalue allocates its chunk offsets and grows the output once. The
// seed pipeline allocated a partial mesh per chunk — hundreds of objects
// per cycle on this grid.
func TestContourSteadyStateAllocs(t *testing.T) {
	g := sphereGrid(t, 24)
	pool := par.NewPool(1)
	defer pool.Close()
	f := New(Options{Field: "r"})
	cycle := func() {
		ex := viz.NewExec(pool)
		if _, err := f.Run(g, ex); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // warm the pool's scratch store
	allocs := testing.AllocsPerRun(10, cycle)
	// The remaining allocations are the per-cycle result (output mesh
	// growth, Exec, profile) — not per-chunk partials, which would be
	// hundreds on a 24^3 grid with 10 isovalues.
	if allocs > 120 {
		t.Errorf("steady-state contour cycle allocates %.0f objects/op, want <= 120", allocs)
	}
}

// latticeGrid has the integer point field i+j+k, so an integer isovalue
// lands exactly on grid points: a cell whose lowest corner equals it
// holds the isovalue (it is crossed) but emits no triangle.
func latticeGrid(t testing.TB, n int) *mesh.UniformGrid {
	t.Helper()
	g, err := mesh.NewCubeGrid(n)
	if err != nil {
		t.Fatal(err)
	}
	f := g.AddPointField("s")
	for id := range f {
		i, j, k := g.PointIJK(id)
		f[id] = float64(i + j + k)
	}
	return g
}

// One run carries both prices: at every worker count, Result.DPP of a
// traditional run is the Profile of a run with Backend viz.DPP, and the
// two runs emit the same surface. On the lattice the crossed and the
// emitting cell counts differ, so a formulation priced from the other's
// count shows.
func TestContourOneRunPricedBothWays(t *testing.T) {
	g := latticeGrid(t, 12)
	opts := Options{Field: "s", Isovalues: []float64{6, 17}}
	dppOpts := opts
	dppOpts.Backend = viz.DPP
	var first *viz.Result
	for _, nw := range []int{1, 2, 4} {
		pool := par.NewPool(nw)
		trad, err := New(opts).Run(g, viz.NewExec(pool))
		if err != nil {
			t.Fatal(err)
		}
		dpp, err := New(dppOpts).Run(g, viz.NewExec(pool))
		pool.Close()
		if err != nil {
			t.Fatal(err)
		}
		if trad.DPP != dpp.Profile {
			t.Errorf("nw=%d: Result.DPP\n got %+v\nwant %+v", nw, trad.DPP, dpp.Profile)
		}
		if triDigest(trad.Tris) != triDigest(dpp.Tris) || len(trad.Tris.Tris) == 0 {
			t.Errorf("nw=%d: the two runs emit different surfaces (%d vs %d triangles)", nw, len(trad.Tris.Tris), len(dpp.Tris.Tris))
		}
		// fillCost charges 72 flops per visited cell: the traditional
		// price visits the crossed cells, the DPP one the emitting cells.
		if trad.Profile.Flops <= trad.DPP.Flops {
			t.Errorf("nw=%d: crossed and emitting counts coincide (flops %d vs %d); the lattice should separate them",
				nw, trad.Profile.Flops, trad.DPP.Flops)
		}
		if first == nil {
			first = trad
		} else if trad.Profile != first.Profile || trad.DPP != first.DPP {
			t.Errorf("nw=%d: prices differ from the 1-worker run", nw)
		}
	}
}
