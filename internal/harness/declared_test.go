package harness

import (
	"slices"
	"testing"

	"repro/internal/mesh"
	"repro/internal/viz"
)

// declaredFields is what a study data set holds: the arrays its kernels
// read — threshold's cell energy, the other scalar filters' point energy
// (gradient and histogram too), advection's velocity — and nothing else.
var declaredFields = []string{"cell energy", "point energy", "vector velocity"}

// TestDatasetHoldsDeclaredFields: the hydro data set, its resampling and
// the slabs and blocks dist cuts from it hold exactly the declared
// arrays; every filter of ExtendedFilters runs on the hydro one without
// adding a field to it; and an unread cell field changes no filter's
// profile, so the arrays the data set no longer carries were never
// priced.
func TestDatasetHoldsDeclaredFields(t *testing.T) {
	c := tinyConfig()
	hydro, err := c.Dataset(16)
	if err != nil {
		t.Fatal(err)
	}
	resampled, err := c.Dataset(32)
	if err != nil {
		t.Fatal(err)
	}
	slabs, err := mesh.SlabDecompose(hydro, 2)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := mesh.BlockDecompose(hydro, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	grids := map[string]*mesh.UniformGrid{
		"hydro 16^3": hydro, "resampled 32^3": resampled,
		"slab 0": slabs[0], "slab 1": slabs[1],
		"block 0": blocks[0].Grid, "block 1": blocks[1].Grid,
	}
	for name, g := range grids {
		if got := g.FieldNames(); !slices.Equal(got, declaredFields) {
			t.Errorf("%s holds %v, want %v", name, got, declaredFields)
		}
	}

	// The same data set, built again, with one more cell field no filter
	// reads.
	extra, err := tinyConfig().BuildDataset(16, nil)
	if err != nil {
		t.Fatal(err)
	}
	unread := extra.AddCellField("unread")
	for i := range unread {
		unread[i] = float64(i%11) - 5
	}
	for _, f := range c.ExtendedFilters() {
		res, err := f.Run(hydro, viz.NewExec(c.Pool))
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		if got := hydro.FieldNames(); !slices.Equal(got, declaredFields) {
			t.Fatalf("%s left the data set holding %v", f.Name(), got)
		}
		resExtra, err := f.Run(extra, viz.NewExec(c.Pool))
		if err != nil {
			t.Fatalf("%s with an unread field: %v", f.Name(), err)
		}
		if res.Profile != resExtra.Profile || res.DPP != resExtra.DPP {
			t.Errorf("%s: an unread cell field moved the profile:\n%+v\n%+v", f.Name(), res.Profile, resExtra.Profile)
		}
	}
}
