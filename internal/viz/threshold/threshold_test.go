package threshold

import (
	"testing"

	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/viz"
)

// gradGrid builds a grid whose cell field equals the cell's x index.
func gradGrid(t testing.TB, n int) *mesh.UniformGrid {
	t.Helper()
	g, err := mesh.NewCubeGrid(n)
	if err != nil {
		t.Fatal(err)
	}
	cf := g.AddCellField("e")
	for c := range cf {
		i, _, _ := g.CellIJK(c)
		cf[c] = float64(i)
	}
	return g
}

func TestThresholdKeepsExactlyTheRange(t *testing.T) {
	n := 8
	g := gradGrid(t, n)
	res, err := New(Options{Field: "e", Lo: 2, Hi: 4}).Run(g, viz.NewExec(par.NewPool(2)))
	if err != nil {
		t.Fatal(err)
	}
	// Cells with i in {2,3,4}: 3 slabs of n*n cells.
	want := 3 * n * n
	if res.Cells.NumCells() != want {
		t.Fatalf("kept %d cells, want %d", res.Cells.NumCells(), want)
	}
	if err := res.Cells.Validate(); err != nil {
		t.Fatalf("invalid output: %v", err)
	}
	// All kept cells are hexes within the x range [2h, 5h].
	h := 1.0 / float64(n)
	for _, p := range res.Cells.Points {
		if p[0] < 2*h-1e-9 || p[0] > 5*h+1e-9 {
			t.Fatalf("kept-cell point %v outside expected x range", p)
		}
	}
	for i := 0; i < res.Cells.NumCells(); i++ {
		ct, _ := res.Cells.Cell(i)
		if ct != mesh.Hex {
			t.Fatalf("cell %d type = %v, want hex", i, ct)
		}
	}
}

func TestThresholdEmptyAndFull(t *testing.T) {
	g := gradGrid(t, 4)
	ex := viz.NewExec(par.NewPool(2))
	empty, err := New(Options{Field: "e", Lo: 100, Hi: 200}).Run(g, ex)
	if err != nil {
		t.Fatal(err)
	}
	if empty.Cells.NumCells() != 0 {
		t.Errorf("out-of-range threshold kept %d cells", empty.Cells.NumCells())
	}
	full, err := New(Options{Field: "e", Lo: -1, Hi: 100}).Run(g, viz.NewExec(par.NewPool(2)))
	if err != nil {
		t.Fatal(err)
	}
	if full.Cells.NumCells() != g.NumCells() {
		t.Errorf("all-pass threshold kept %d of %d cells", full.Cells.NumCells(), g.NumCells())
	}
}

func TestThresholdDefaultRange(t *testing.T) {
	g := gradGrid(t, 6)
	res, err := New(Options{Field: "e"}).Run(g, viz.NewExec(par.NewPool(2)))
	if err != nil {
		t.Fatal(err)
	}
	// Default keeps the upper half of the range: i in {3,4,5} out of 0-5
	// (lo = 2.5).
	if res.Cells.NumCells() != 3*6*6 {
		t.Errorf("default range kept %d cells, want %d", res.Cells.NumCells(), 3*6*6)
	}
}

func TestThresholdMissingField(t *testing.T) {
	g := gradGrid(t, 4)
	if _, err := New(Options{Field: "nope"}).Run(g, viz.NewExec(par.NewPool(1))); err == nil {
		t.Error("missing field accepted")
	}
}

func TestThresholdDeterministicAcrossWorkers(t *testing.T) {
	g := gradGrid(t, 6)
	r1, err := New(Options{Field: "e", Lo: 1, Hi: 4}).Run(g, viz.NewExec(par.NewPool(1)))
	if err != nil {
		t.Fatal(err)
	}
	r4, err := New(Options{Field: "e", Lo: 1, Hi: 4}).Run(g, viz.NewExec(par.NewPool(4)))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cells.NumCells() != r4.Cells.NumCells() {
		t.Fatalf("cells differ: %d vs %d", r1.Cells.NumCells(), r4.Cells.NumCells())
	}
	if r1.Profile != r4.Profile {
		t.Errorf("profiles differ across worker counts")
	}
}

func TestThresholdProfileIsStreamDominated(t *testing.T) {
	g := gradGrid(t, 10)
	res, err := New(Options{Field: "e", Lo: 100, Hi: 200}).Run(g, viz.NewExec(par.NewPool(2)))
	if err != nil {
		t.Fatal(err)
	}
	p := res.Profile
	// With nothing kept, traffic is the streamed classify + scan +
	// scatter passes over the cell field.
	if p.LoadBytes[0] != uint64(g.NumCells())*24 { // ops.Stream == 0
		t.Errorf("stream loads = %d, want %d", p.LoadBytes[0], g.NumCells()*24)
	}
	if p.Flops >= p.LoadBytes[0] {
		t.Errorf("threshold should be memory-dominated: flops=%d", p.Flops)
	}
	if res.Elements != int64(g.NumCells()) {
		t.Errorf("Elements = %d", res.Elements)
	}
}

func TestThresholdExternalFacesRenderable(t *testing.T) {
	g := gradGrid(t, 6)
	res, err := New(Options{Field: "e", Lo: 2, Hi: 3}).Run(g, viz.NewExec(par.NewPool(3)))
	if err != nil {
		t.Fatal(err)
	}
	welded := mesh.WeldPointsPool(res.Cells, 1e-9, nil)
	surf := mesh.ExternalFaces(welded)
	// The kept slab is 2x6x6 cells: surface = 2*(2*6 + 2*6 + 6*6) quads
	// = 120 quads = 240 triangles.
	if surf.NumTris() != 240 {
		t.Errorf("slab surface tris = %d, want 240", surf.NumTris())
	}
}
