package threshold

import (
	"math"
	"slices"
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

// Thresholding [min, m] and its complement [next float after m, max]
// keeps every cell exactly once, whatever m and the worker count: no
// cell is lost or kept twice at the range's closed ends.
func TestThresholdPartitionsCells(t *testing.T) {
	g := waveGrid(t, 12)
	cf := g.CellField("e")
	fmin, fmax := mesh.FieldRange(cf)
	sorted := slices.Clone(cf)
	slices.Sort(sorted)
	// The extremes, field values themselves (so cells sit on the split)
	// and a value between field values.
	splits := []float64{fmin, sorted[len(sorted)/10], sorted[len(sorted)/2], sorted[9*len(sorted)/10], 0.1234567, fmax}
	if fmin >= 0 || fmax <= 0 {
		// Lo == Hi == 0 would select the default range.
		t.Fatalf("field range [%g, %g] does not straddle 0", fmin, fmax)
	}
	for _, workers := range []int{1, 2, 4} {
		pool := par.NewPool(workers)
		kept := func(lo, hi float64) int {
			res, err := New(Options{Field: "e", Lo: lo, Hi: hi}).Run(g, viz.NewExec(pool))
			if err != nil {
				t.Fatal(err)
			}
			return res.Cells.NumCells()
		}
		for _, m := range splits {
			below, above := kept(fmin, m), kept(math.Nextafter(m, math.Inf(1)), fmax)
			if below+above != g.NumCells() {
				t.Errorf("workers=%d m=%g: [min, m] kept %d, (m, max] kept %d; sum %d, want %d",
					workers, m, below, above, below+above, g.NumCells())
			}
		}
		pool.Close()
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
	// Its points are already welded: the faces of neighbouring cells pair
	// up on shared indices.
	if welded := mesh.WeldPointsPool(res.Cells, 1e-9, nil); len(welded.Points) != len(res.Cells.Points) {
		t.Fatalf("%d points weld into %d", len(res.Cells.Points), len(welded.Points))
	}
	surf := mesh.ExternalFaces(res.Cells)
	// The kept slab is 2x6x6 cells: surface = 2*(2*6 + 2*6 + 6*6) quads
	// = 120 quads = 240 triangles.
	if surf.NumTris() != 240 {
		t.Errorf("slab surface tris = %d, want 240", surf.NumTris())
	}
}

// One run carries both prices: at every worker count, Result.DPP of a
// traditional run is the Profile of a run with Backend viz.DPP, and the
// two runs keep the same cells. The integer field and bounds put cells
// exactly on both ends of the range.
func TestThresholdOneRunPricedBothWays(t *testing.T) {
	g := gradGrid(t, 12)
	opts := Options{Field: "e", Lo: 3, Hi: 7}
	dppOpts := opts
	dppOpts.Backend = viz.DPP
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
		if trad.DPP == trad.Profile {
			t.Errorf("nw=%d: the two formulations priced the same", nw)
		}
		if cellsDigest(trad.Cells) != cellsDigest(dpp.Cells) || trad.Cells.NumCells() != 5*12*12 {
			t.Errorf("nw=%d: the runs keep %d and %d cells, want %d each", nw, trad.Cells.NumCells(), dpp.Cells.NumCells(), 5*12*12)
		}
	}
}
