package raytrace

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/render"
	"repro/internal/viz"
	"repro/internal/viz/contour"
)

// bvhRecording is one BVH build pinned at a parent commit: the node
// count, digests of the topology (each node's children, axis, start and
// num), of order and of every node's bounds, and the traversal work of
// one orbit frame.
type bvhRecording struct {
	mesh     string
	workers  int
	nodes    int
	topology uint64
	order    uint64
	bounds   uint64
	stats    TraverseStats
}

// bvhDigests hashes the tree. Bounds are hashed by value: adding +0 maps
// −0 to +0, so two trees whose boxes compare == digest alike.
func bvhDigests(b *BVH) (topology, order, bounds uint64) {
	top, ord, bnd := fnv.New64a(), fnv.New64a(), fnv.New64a()
	var w [8]byte
	word := func(h interface{ Write([]byte) (int, error) }, v uint64) {
		binary.LittleEndian.PutUint64(w[:], v)
		h.Write(w[:])
	}
	for _, nd := range b.nodes {
		word(top, uint64(uint32(nd.left))<<32|uint64(uint32(nd.right)))
		word(top, uint64(uint32(nd.start))<<32|uint64(uint32(nd.num)))
		word(top, uint64(nd.axis))
		for _, v := range [][3]float64{nd.bounds.Lo, nd.bounds.Hi} {
			for _, x := range v {
				word(bnd, math.Float64bits(x+0))
			}
		}
	}
	for _, ti := range b.order {
		word(ord, uint64(uint32(ti)))
	}
	return top.Sum64(), ord.Sum64(), bnd.Sum64()
}

// recordingMeshes are the surfaces the recordings were taken on: the
// ten-isovalue contour surface of a distance field at 16³ and 32³, and
// the external faces of a 32³ grid.
func recordingMeshes(t *testing.T) map[string]*mesh.TriMesh {
	t.Helper()
	out := map[string]*mesh.TriMesh{}
	for _, n := range []int{16, 32} {
		g, err := mesh.NewCubeGrid(n)
		if err != nil {
			t.Fatal(err)
		}
		f := g.AddPointField("r")
		c := mesh.Vec3{0.5, 0.5, 0.5}
		for id := range f {
			f[id] = g.PointPosition(id).Sub(c).Norm()
		}
		res, err := contour.New(contour.Options{Field: "r"}).Run(g, viz.NewExec(par.NewPool(2)))
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("contour-%d", n)] = res.Tris
	}
	faces, err := mesh.GridExternalFaces(energyGrid(t, 32), "energy")
	if err != nil {
		t.Fatal(err)
	}
	out["faces-32"] = faces
	return out
}

// orbitFrameStats traces one 64×64 orbit frame of m's bounding box and
// returns the traversal work.
func orbitFrameStats(b *BVH, m *mesh.TriMesh) TraverseStats {
	box := mesh.EmptyBounds()
	for _, p := range m.Points {
		box.Extend(p)
	}
	cam, _ := render.OrbitView(box, 3, 10)
	fr := cam.Frame(64, 64)
	var stats TraverseStats
	for py := 0; py < 64; py++ {
		for px := 0; px < 64; px++ {
			orig, dir := fr.Ray(px, py)
			b.Intersect(m, orig, dir, &stats)
		}
	}
	return stats
}

// The trees of the binned-SAH build, recorded at the parent of the PR
// whose splits hand each child its bounds (commit e9f9758). The serial
// top of the tree depends on the worker count, so each is recorded.
func TestBVHMatchesParentRecording(t *testing.T) {
	recs := []bvhRecording{
		{mesh: "contour-16", workers: 1, nodes: 18669, topology: 0xc7cebb3ed948498d, order: 0x928c6d9784d565b1, bounds: 0xdfddbeda3f7f3736, stats: TraverseStats{NodesVisited: 34310, TriTests: 6215}},
		{mesh: "contour-16", workers: 2, nodes: 18669, topology: 0x3cb755eb1015660d, order: 0x928c6d9784d565b1, bounds: 0xdb6a080104959276, stats: TraverseStats{NodesVisited: 34310, TriTests: 6215}},
		{mesh: "contour-16", workers: 4, nodes: 18669, topology: 0xb7f225988f2818c9, order: 0x928c6d9784d565b1, bounds: 0x34a7a5cfe9115eda, stats: TraverseStats{NodesVisited: 34310, TriTests: 6215}},
		{mesh: "contour-32", workers: 1, nodes: 75483, topology: 0xabcc1419ece3962b, order: 0x342572b8c4d412ed, bounds: 0x4c8d47d3d65f36ee, stats: TraverseStats{NodesVisited: 40480, TriTests: 5746}},
		{mesh: "contour-32", workers: 2, nodes: 75483, topology: 0x4a0a4eff9515a08f, order: 0x342572b8c4d412ed, bounds: 0xcbd099a6b8d19506, stats: TraverseStats{NodesVisited: 40480, TriTests: 5746}},
		{mesh: "contour-32", workers: 4, nodes: 75483, topology: 0x3fd38e202382d403, order: 0x342572b8c4d412ed, bounds: 0x68800ab23dca012e, stats: TraverseStats{NodesVisited: 40480, TriTests: 5746}},
		{mesh: "faces-32", workers: 1, nodes: 6287, topology: 0x6f6049f3baa2a8d0, order: 0x7ceb9f672bc670d, bounds: 0xfbb3a11ba8625e37, stats: TraverseStats{NodesVisited: 22500, TriTests: 3080}},
		{mesh: "faces-32", workers: 2, nodes: 6287, topology: 0x6cee2bd8b040bf90, order: 0x7ceb9f672bc670d, bounds: 0xad2a955a3bdad47b, stats: TraverseStats{NodesVisited: 22500, TriTests: 3080}},
		{mesh: "faces-32", workers: 4, nodes: 6287, topology: 0x6cee2bd8b040bf90, order: 0x7ceb9f672bc670d, bounds: 0xad2a955a3bdad47b, stats: TraverseStats{NodesVisited: 22500, TriTests: 3080}},
	}
	meshes := recordingMeshes(t)
	for _, rec := range recs {
		m := meshes[rec.mesh]
		pool := par.NewPool(rec.workers)
		b := BuildBVHWith(m, pool)
		pool.Close()
		got := bvhRecording{mesh: rec.mesh, workers: rec.workers, nodes: b.NumNodes(), stats: orbitFrameStats(b, m)}
		got.topology, got.order, got.bounds = bvhDigests(b)
		if got != rec {
			t.Errorf("%s at %d workers:\n got %#v\nwant %#v", rec.mesh, rec.workers, got, rec)
		}
	}
}
