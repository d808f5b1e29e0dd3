package raytrace

import (
	"math/rand"
	"testing"

	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/render"
	"repro/internal/viz"
)

// The acceptance bar for the BVH rework: the binned-SAH tree with ordered
// traversal returns hit records bit-identical to the retained sort-median
// reference tree and to brute force — the deterministic tie-break makes
// the nearest hit independent of tree shape and traversal order.
func TestGoldenHitsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 6; trial++ {
		m := randomTris(rng, 120+trial*80)
		fast := BuildBVHWith(m, par.NewPool(4))
		ref := BuildBVHReference(m)
		for r := 0; r < 400; r++ {
			orig := mesh.Vec3{rng.Float64()*3 - 1, rng.Float64()*3 - 1, rng.Float64()*3 - 1}
			dir := mesh.Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}.Normalize()
			if dir == (mesh.Vec3{}) {
				continue
			}
			hb, okB := BruteForceIntersect(m, orig, dir)
			hf, okF := fast.Intersect(m, orig, dir, nil)
			hr, okR := ref.IntersectReference(m, orig, dir, nil)
			if okB != okF || okB != okR {
				t.Fatalf("trial %d ray %d: hit flags differ (brute %v, fast %v, ref %v)",
					trial, r, okB, okF, okR)
			}
			if !okB {
				continue
			}
			if hf != hb {
				t.Fatalf("trial %d ray %d: fast hit %+v != brute %+v", trial, r, hf, hb)
			}
			if hr != hb {
				t.Fatalf("trial %d ray %d: reference hit %+v != brute %+v", trial, r, hr, hb)
			}
		}
	}
}

// Golden frame: the full render path (frame rays + ordered traversal)
// must produce the same image on the SAH tree and the reference tree.
func TestGoldenRenderMatchesReferenceTree(t *testing.T) {
	g := energyGrid(t, 10)
	ex := viz.NewExec(par.NewPool(4))
	scene, err := GatherScene(g, "energy", ex)
	if err != nil {
		t.Fatal(err)
	}
	refScene := &Scene{Tris: scene.Tris, BVH: BuildBVHReference(scene.Tris), Norm: scene.Norm}
	cam := render.OrbitCamera(g.Bounds(), 0.6, 0.4, 2.0)
	imFast := scene.RenderInto(nil, cam, 48, 48, ex)
	imRef := refScene.RenderInto(nil, cam, 48, 48, ex)
	for i := range imFast.Pix {
		if imFast.Pix[i] != imRef.Pix[i] {
			t.Fatalf("pixel %d differs: %v vs %v", i, imFast.Pix[i], imRef.Pix[i])
		}
		if imFast.Depth[i] != imRef.Depth[i] {
			t.Fatalf("depth %d differs: %v vs %v", i, imFast.Depth[i], imRef.Depth[i])
		}
	}
}

// The ordered traversal must not do more work than the unordered one on
// average — descending into the near child first tightens best.T sooner.
func TestOrderedTraversalVisitsNoMoreNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := randomTris(rng, 600)
	bvh := BuildBVHWith(m, par.NewPool(4))
	var ordered, unordered TraverseStats
	for r := 0; r < 500; r++ {
		orig := mesh.Vec3{rng.Float64()*3 - 1, rng.Float64()*3 - 1, rng.Float64()*3 - 1}
		dir := mesh.Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}.Normalize()
		if dir == (mesh.Vec3{}) {
			continue
		}
		bvh.Intersect(m, orig, dir, &ordered)
		bvh.IntersectReference(m, orig, dir, &unordered)
	}
	if ordered.TriTests > unordered.TriTests {
		t.Errorf("ordered traversal tested %d triangles, unordered %d",
			ordered.TriTests, unordered.TriTests)
	}
}

// The parallel build must be deterministic across worker counts: subtree
// jobs partition disjoint ranges, so 1-worker and 8-worker builds produce
// identical hit records. Exercised with -race in the Makefile race target.
func TestParallelBuildMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	m := randomTris(rng, 3000)
	serial := BuildBVHWith(m, par.NewPool(1))
	parallel := BuildBVHWith(m, par.NewPool(8))
	if serial.NumNodes() != parallel.NumNodes() {
		t.Fatalf("node counts differ: %d vs %d", serial.NumNodes(), parallel.NumNodes())
	}
	for r := 0; r < 300; r++ {
		orig := mesh.Vec3{rng.Float64()*3 - 1, rng.Float64()*3 - 1, rng.Float64()*3 - 1}
		dir := mesh.Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}.Normalize()
		if dir == (mesh.Vec3{}) {
			continue
		}
		hs, okS := serial.Intersect(m, orig, dir, nil)
		hp, okP := parallel.Intersect(m, orig, dir, nil)
		if okS != okP || hs != hp {
			t.Fatalf("ray %d: serial %+v(%v) vs parallel %+v(%v)", r, hs, okS, hp, okP)
		}
	}
}
