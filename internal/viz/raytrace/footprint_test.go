package raytrace

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/viz"
	"repro/internal/viz/clip"
)

// clipSurface is Figure 1's clip surface at n³: the spherical clip of the
// energy field, welded, its external faces.
func clipSurface(t *testing.T, n int, pool *par.Pool) *mesh.TriMesh {
	t.Helper()
	res, err := clip.New(clip.Options{Field: "energy"}).Run(energyGrid(t, n), viz.NewExec(pool))
	if err != nil {
		t.Fatal(err)
	}
	return mesh.ExternalFaces(mesh.WeldPointsPool(res.Cells, 1e-9, pool))
}

// A build costs its output. The tree is allocated once at its final
// length, a build makes a few allocations per subtree job and none per
// node, and what it allocates in all — order, each triangle's box,
// centroid and bin, the subtree jobs' node slices and the tree — stays
// under maxBuildBytesPerTri per triangle, where reserving 4n nodes cost
// 4·72 = 288 bytes per triangle in node storage alone.
func TestBVHFootprintIsItsOutput(t *testing.T) {
	const maxBuildBytesPerTri = 200
	pool := par.NewPool(2)
	defer pool.Close()
	meshes := []struct {
		name string
		m    *mesh.TriMesh
	}{
		{"clip-32", clipSurface(t, 32, pool)},
		{"soup", randomTris(rand.New(rand.NewSource(5)), 20000)},
	}
	for _, tc := range meshes {
		n := tc.m.NumTris()
		b := BuildBVHWith(tc.m, pool)
		if cap(b.nodes) != len(b.nodes) {
			t.Errorf("%s: %d nodes in storage for %d", tc.name, cap(b.nodes), len(b.nodes))
		}
		const runs = 3
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		// AllocsPerRun warms up with one extra call.
		allocs := testing.AllocsPerRun(runs, func() { BuildBVHWith(tc.m, pool) })
		runtime.ReadMemStats(&after)
		perTri := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) / float64(n)
		t.Logf("%s: %d triangles, %d nodes, %.0f allocations and %.1f bytes per triangle per build", tc.name, n, len(b.nodes), allocs, perTri)
		// A few allocations per subtree job, none per node.
		if allocs > 64 {
			t.Errorf("%s: %.0f allocations per build, want at most 64", tc.name, allocs)
		}
		if perTri > maxBuildBytesPerTri {
			t.Errorf("%s: a build allocates %.1f bytes per triangle, want at most %d", tc.name, perTri, maxBuildBytesPerTri)
		}
	}
}
