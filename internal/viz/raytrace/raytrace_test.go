package raytrace

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/render"
	"repro/internal/viz"
)

func randomTris(rng *rand.Rand, n int) *mesh.TriMesh {
	m := &mesh.TriMesh{}
	for i := 0; i < n; i++ {
		base := mesh.Vec3{rng.Float64(), rng.Float64(), rng.Float64()}
		p0 := base
		p1 := base.Add(mesh.Vec3{0.2 * rng.Float64(), 0.2 * rng.Float64(), 0.2 * rng.Float64()})
		p2 := base.Add(mesh.Vec3{0.2 * rng.Float64(), 0.2 * rng.Float64(), 0.2 * rng.Float64()})
		b := int32(len(m.Points))
		m.Points = append(m.Points, p0, p1, p2)
		m.Scalars = append(m.Scalars, 1, 1, 1)
		m.Tris = append(m.Tris, [3]int32{b, b + 1, b + 2})
	}
	return m
}

// Property: BVH traversal agrees with brute force on random scenes and
// random rays.
func TestBVHAgreesWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		m := randomTris(rng, 50+trial*30)
		bvh := BuildBVHWith(m, nil)
		for r := 0; r < 200; r++ {
			orig := mesh.Vec3{rng.Float64()*3 - 1, rng.Float64()*3 - 1, rng.Float64()*3 - 1}
			dir := mesh.Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}.Normalize()
			if dir == (mesh.Vec3{}) {
				continue
			}
			hb, okB := BruteForceIntersect(m, orig, dir)
			hv, okV := bvh.Intersect(m, orig, dir, nil)
			if okB != okV {
				t.Fatalf("trial %d ray %d: hit mismatch (brute %v, bvh %v)", trial, r, okB, okV)
			}
			if okB && math.Abs(hb.T-hv.T) > 1e-9 {
				t.Fatalf("trial %d ray %d: t mismatch %v vs %v", trial, r, hb.T, hv.T)
			}
		}
	}
	// Chains deeper than Intersect's fixed 64-entry stack: every axis ray
	// aimed at a triangle, from either side, must find the brute-force hit.
	for _, factor := range []float64{3, 20} {
		m := chainTris(200, factor)
		bvh := BuildBVHWith(m, nil)
		if d := treeDepth(bvh, 0); d <= 64 {
			t.Fatalf("factor %v: tree depth %d, want a chain deeper than 64", factor, d)
		}
		far := 2 * m.Points[len(m.Points)-1][0]
		for i := range m.Tris {
			for _, o := range []float64{-1, far} {
				orig, dir := mesh.Vec3{o, 3 * float64(i), -0.25}, mesh.Vec3{1, 0, 0}
				if o > 0 {
					dir[0] = -1
				}
				hb, okB := BruteForceIntersect(m, orig, dir)
				hv, okV := bvh.Intersect(m, orig, dir, nil)
				if !okB || okV != okB || hv != hb {
					t.Fatalf("factor %v triangle %d from x=%v: bvh %+v (%v), brute force %+v (%v)", factor, i, o, hv, okV, hb, okB)
				}
			}
		}
	}
}

// chainTris lays n triangles in the planes x = factor^i, each at its own
// y: their centroids are spaced geometrically along x, so every binned
// split peels off the few farthest and the tree is a chain about as deep
// as n is long.
func chainTris(n int, factor float64) *mesh.TriMesh {
	m := &mesh.TriMesh{}
	x := 1.0
	for i := 0; i < n; i++ {
		y := 3 * float64(i)
		b := int32(len(m.Points))
		m.Points = append(m.Points, mesh.Vec3{x, y - 1, -1}, mesh.Vec3{x, y + 1, -1}, mesh.Vec3{x, y, 1})
		m.Scalars = append(m.Scalars, 1, 1, 1)
		m.Tris = append(m.Tris, [3]int32{b, b + 1, b + 2})
		x *= factor
	}
	return m
}

// treeDepth is the number of nodes on the longest root-to-leaf path below
// node.
func treeDepth(b *BVH, node int32) int {
	nd := b.nodes[node]
	if nd.num > 0 {
		return 1
	}
	return 1 + max(treeDepth(b, nd.left), treeDepth(b, nd.right))
}

func TestBVHEmptyMesh(t *testing.T) {
	if BuildBVHWith(&mesh.TriMesh{}, nil) != nil {
		t.Error("BVH of empty mesh should be nil")
	}
	var nilBVH *BVH
	if _, ok := nilBVH.Intersect(&mesh.TriMesh{}, mesh.Vec3{}, mesh.Vec3{0, 0, 1}, nil); ok {
		t.Error("nil BVH reported a hit")
	}
}

func TestBVHStatsAccumulate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randomTris(rng, 100)
	bvh := BuildBVHWith(m, nil)
	var stats TraverseStats
	bvh.Intersect(m, mesh.Vec3{0.5, 0.5, -2}, mesh.Vec3{0, 0, 1}, &stats)
	if stats.NodesVisited == 0 {
		t.Error("no nodes visited")
	}
	// With 100 tris and 4-tri leaves, a good BVH tests far fewer than
	// all triangles for a single ray.
	if stats.TriTests >= 100 {
		t.Errorf("BVH tested %d of 100 triangles; acceleration absent", stats.TriTests)
	}
}

func TestTriIntersectBasics(t *testing.T) {
	p0 := mesh.Vec3{0, 0, 0}
	p1 := mesh.Vec3{1, 0, 0}
	p2 := mesh.Vec3{0, 1, 0}
	// Straight-on hit.
	tt, u, v, ok := triIntersect(mesh.Vec3{0.2, 0.2, -1}, mesh.Vec3{0, 0, 1}, p0, p1, p2)
	if !ok || math.Abs(tt-1) > 1e-12 {
		t.Errorf("hit: ok=%v t=%v", ok, tt)
	}
	if math.Abs(u-0.2) > 1e-12 || math.Abs(v-0.2) > 1e-12 {
		t.Errorf("barycentrics = %v, %v", u, v)
	}
	// Miss outside the triangle.
	if _, _, _, ok := triIntersect(mesh.Vec3{0.9, 0.9, -1}, mesh.Vec3{0, 0, 1}, p0, p1, p2); ok {
		t.Error("hit outside the triangle")
	}
	// Parallel ray.
	if _, _, _, ok := triIntersect(mesh.Vec3{0, 0, -1}, mesh.Vec3{1, 0, 0}, p0, p1, p2); ok {
		t.Error("parallel ray reported a hit")
	}
	// Behind the origin.
	if _, _, _, ok := triIntersect(mesh.Vec3{0.2, 0.2, 1}, mesh.Vec3{0, 0, 1}, p0, p1, p2); ok {
		t.Error("hit behind the ray origin")
	}
}

func energyGrid(t testing.TB, n int) *mesh.UniformGrid {
	t.Helper()
	g, err := mesh.NewCubeGrid(n)
	if err != nil {
		t.Fatal(err)
	}
	f := g.AddPointField("energy")
	for id := 0; id < g.NumPoints(); id++ {
		p := g.PointPosition(id)
		f[id] = p[0] + p[1] + p[2]
	}
	return g
}

func TestGatherSceneBuildsSurface(t *testing.T) {
	g := energyGrid(t, 6)
	ex := viz.NewExec(par.NewPool(2))
	scene, err := GatherScene(g, "energy", ex)
	if err != nil {
		t.Fatal(err)
	}
	if scene.Tris.NumTris() != 6*6*6*2 {
		t.Errorf("surface tris = %d, want %d", scene.Tris.NumTris(), 6*6*6*2)
	}
	if scene.BVH == nil {
		t.Fatal("no BVH")
	}
	p := ex.Drain()
	if p.Launches < 2 {
		t.Errorf("Launches = %d, want >= 2 (gather + build)", p.Launches)
	}
	if p.LoadBytes[0] < uint64(g.NumCells())*8 {
		t.Errorf("gather did not stream the cell space: %v", p.LoadBytes)
	}
}

func TestRenderHitsTheCube(t *testing.T) {
	g := energyGrid(t, 6)
	ex := viz.NewExec(par.NewPool(2))
	scene, err := GatherScene(g, "energy", ex)
	if err != nil {
		t.Fatal(err)
	}
	cam := render.OrbitCamera(g.Bounds(), 0.6, 0.4, 2.0)
	im := scene.RenderInto(nil, cam, 32, 32, ex)
	// The center pixel looks at the cube.
	c := im.At(16, 16)
	bg := render.Color{0.08, 0.08, 0.10, 1}
	if c == bg {
		t.Error("center pixel is background; cube not hit")
	}
	// A corner pixel sees background.
	if im.At(0, 0) != bg {
		t.Errorf("corner pixel = %v, want background", im.At(0, 0))
	}
	if im.MeanLuminance() <= 0.05 {
		t.Errorf("image suspiciously dark: %v", im.MeanLuminance())
	}
}

func TestRayTraceFilterRun(t *testing.T) {
	g := energyGrid(t, 6)
	f := New(Options{Field: "energy", Images: 5, Width: 24, Height: 24})
	res, err := f.Run(g, viz.NewExec(par.NewPool(2)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Images != 5 {
		t.Errorf("Images = %d, want 5", res.Images)
	}
	p := res.Profile
	// Gather + build + 5 render launches.
	if p.Launches != 7 {
		t.Errorf("Launches = %d, want 7", p.Launches)
	}
	if p.Flops == 0 || p.LoadBytes[3] == 0 {
		t.Errorf("profile incomplete: %+v", p)
	}
	if res.Elements != int64(g.NumCells()) {
		t.Errorf("Elements = %d", res.Elements)
	}
}

func TestRayTraceMissingField(t *testing.T) {
	g, err := mesh.NewCubeGrid(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{Field: "nope"}).Run(g, viz.NewExec(par.NewPool(1))); err == nil {
		t.Error("missing field accepted")
	}
}

func TestNewSceneFromArbitraryTris(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randomTris(rng, 20)
	s := NewSceneWith(m, nil)
	if s.BVH == nil || s.Tris != m {
		t.Error("NewSceneWith incomplete")
	}
}
