package harness

import (
	"fmt"
	"testing"

	"repro/internal/ops"
	"repro/internal/par"
	"repro/internal/viz"
	"repro/internal/viz/raytrace"
	"repro/internal/viz/volren"
)

// orbitProfilePins are the two image filters' Result.Profile on the
// golden campaign's 16^3 and 32^3 data sets, an 11-image orbit at 64x64,
// recorded when each filter rendered its frames one after another.
var orbitProfilePins = map[string]ops.Profile{
	"Volume Rendering 16": {Flops: 7162692, IntOps: 2524420, Branches: 556566, LoadBytes: [4]uint64{46656, 0, 0, 7945824}, StoreBytes: [4]uint64{180352, 0, 0, 0}, Launches: 12, WorkingSetBytes: 39304},
	"Ray Tracing 16":      {Flops: 4921756, IntOps: 2093632, Branches: 942544, LoadBytes: [4]uint64{32768, 61520, 589824, 17615680}, StoreBytes: [4]uint64{367616, 0, 0, 0}, RandomAccesses: 9216, Launches: 13, WorkingSetBytes: 248768},
	"Volume Rendering 32": {Flops: 13589822, IntOps: 4759738, Branches: 1047942, LoadBytes: [4]uint64{373248, 0, 0, 15897328}, StoreBytes: [4]uint64{181248, 0, 0, 0}, Launches: 12, WorkingSetBytes: 287496},
	"Ray Tracing 32":      {Flops: 5945876, IntOps: 3783864, Branches: 1218220, LoadBytes: [4]uint64{262144, 245840, 2752512, 19826112}, StoreBytes: [4]uint64{926720, 0, 0, 0}, RandomAccesses: 43008, Launches: 13, WorkingSetBytes: 992192},
}

// TestOrbitFilterProfilesPinned runs the volume-rendering and ray-tracing
// filters end to end (build, then the whole orbit) at 1, 2 and 4 workers.
// Eleven frames do not split evenly over two or four workers, so the
// workers render unequal shares of the orbit; the profile must still be
// the recorded one at every width.
func TestOrbitFilterProfilesPinned(t *testing.T) {
	const images, res = 11, 64
	c := goldenConfig()
	defer c.Pool.Close()
	filters := []viz.Filter{
		volren.New(volren.Options{Images: images, Width: res, Height: res}),
		raytrace.New(raytrace.Options{Images: images, Width: res, Height: res}),
	}
	for _, size := range []int{16, 32} {
		g, err := c.Dataset(size)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range filters {
			key := fmt.Sprintf("%s %d", f.Name(), size)
			for _, workers := range []int{1, 2, 4} {
				pool := par.NewPool(workers)
				r, err := f.Run(g, viz.NewExec(pool))
				pool.Close()
				if err != nil {
					t.Fatal(err)
				}
				if r.Images != images {
					t.Errorf("%s at %d workers: %d images, want %d", key, workers, r.Images, images)
				}
				if want := orbitProfilePins[key]; r.Profile != want {
					t.Errorf("%s at %d workers:\n got %+v\nwant %+v", key, workers, r.Profile, want)
				}
			}
		}
	}
}
