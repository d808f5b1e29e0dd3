package clip

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/mesh"
	"repro/internal/ops"
	"repro/internal/par"
	"repro/internal/viz"
)

// meshVolume sums cell volumes by tetrahedral decomposition.
func meshVolume(m *mesh.UnstructuredMesh) float64 {
	total := 0.0
	for c := 0; c < m.NumCells(); c++ {
		ct, conn := m.Cell(c)
		switch ct {
		case mesh.Tet:
			var t viz.Tet
			for k := 0; k < 4; k++ {
				t.P[k] = m.Points[conn[k]]
			}
			total += t.Volume()
		case mesh.Hex:
			for _, tet := range viz.HexTets {
				var t viz.Tet
				for k := 0; k < 4; k++ {
					t.P[k] = m.Points[conn[tet[k]]]
				}
				total += t.Volume()
			}
		}
	}
	return total
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

func TestClipRemovesSphereVolume(t *testing.T) {
	g := energyGrid(t, 14)
	r := 0.25
	res, err := New(Options{
		Field:  "energy",
		Center: mesh.Vec3{0.5, 0.5, 0.5},
		Radius: r,
	}).Run(g, viz.NewExec(par.NewPool(2)))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Cells.Validate(); err != nil {
		t.Fatalf("invalid output: %v", err)
	}
	got := meshVolume(res.Cells)
	want := 1.0 - 4.0/3.0*math.Pi*r*r*r
	if math.Abs(got-want)/want > 0.02 {
		t.Errorf("clipped volume = %v, want ~%v (sphere removed)", got, want)
	}
}

func TestClipKeepsNoPointsInsideSphere(t *testing.T) {
	g := energyGrid(t, 10)
	c := mesh.Vec3{0.5, 0.5, 0.5}
	r := 0.3
	res, err := New(Options{Field: "energy", Center: c, Radius: r}).Run(g, viz.NewExec(par.NewPool(3)))
	if err != nil {
		t.Fatal(err)
	}
	// Tetrahedral clipping is piecewise linear: vertices sit on chords of
	// the sphere, which dip inside it by up to the sagitta (~h²/(8r) per
	// edge of length h).
	h := 0.1
	tol := h * h / (2 * r)
	for _, p := range res.Cells.Points {
		if p.Sub(c).Norm() < r-tol {
			t.Fatalf("output point %v inside the clip sphere beyond discretization error %v", p, tol)
		}
	}
}

func TestClipDefaults(t *testing.T) {
	g := energyGrid(t, 8)
	res, err := New(Options{}).Run(g, viz.NewExec(par.NewPool(2)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cells.NumCells() == 0 {
		t.Error("default clip produced nothing")
	}
	// Default sphere is centered: some cells are culled.
	if res.Cells.NumCells() >= g.NumCells()*8 {
		t.Error("default clip culled nothing")
	}
}

func TestClipMissingField(t *testing.T) {
	g, err := mesh.NewCubeGrid(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{Field: "nope"}).Run(g, viz.NewExec(par.NewPool(1))); err == nil {
		t.Error("missing field accepted")
	}
}

func TestClipDeterministicAcrossWorkers(t *testing.T) {
	g := energyGrid(t, 8)
	opt := Options{Field: "energy", Center: mesh.Vec3{0.5, 0.5, 0.5}, Radius: 0.3}
	r1, err := New(opt).Run(g, viz.NewExec(par.NewPool(1)))
	if err != nil {
		t.Fatal(err)
	}
	r4, err := New(opt).Run(energyGrid(t, 8), viz.NewExec(par.NewPool(4)))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cells.NumCells() != r4.Cells.NumCells() || len(r1.Cells.Points) != len(r4.Cells.Points) {
		t.Fatalf("output differs across worker counts: %d/%d cells, %d/%d points",
			r1.Cells.NumCells(), r4.Cells.NumCells(), len(r1.Cells.Points), len(r4.Cells.Points))
	}
}

func TestClipMixesHexAndTetCells(t *testing.T) {
	g := energyGrid(t, 10)
	res, err := New(Options{Field: "energy", Center: mesh.Vec3{0.5, 0.5, 0.5}, Radius: 0.3}).
		Run(g, viz.NewExec(par.NewPool(2)))
	if err != nil {
		t.Fatal(err)
	}
	var hexes, tets int
	for i := 0; i < res.Cells.NumCells(); i++ {
		ct, _ := res.Cells.Cell(i)
		switch ct {
		case mesh.Hex:
			hexes++
		case mesh.Tet:
			tets++
		}
	}
	if hexes == 0 || tets == 0 {
		t.Errorf("expected mixed cell types, got %d hexes, %d tets", hexes, tets)
	}
}

func TestClipProfileRecordsBothPhases(t *testing.T) {
	g := energyGrid(t, 8)
	res, err := New(Options{Field: "energy"}).Run(g, viz.NewExec(par.NewPool(2)))
	if err != nil {
		t.Fatal(err)
	}
	p := res.Profile
	if p.Launches < 2 {
		t.Errorf("Launches = %d, want >= 2 (distance field + clip)", p.Launches)
	}
	if p.Flops == 0 || p.TotalStoreBytes() == 0 || p.WorkingSetBytes == 0 {
		t.Errorf("profile incomplete: %+v", p)
	}
}

// cellsDigest hashes every array of the mesh, bit for bit.
func cellsDigest(m *mesh.UnstructuredMesh) uint64 {
	h := fnv.New64a()
	var b [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for i, p := range m.Points {
		word(math.Float64bits(p[0]))
		word(math.Float64bits(p[1]))
		word(math.Float64bits(p[2]))
		word(math.Float64bits(m.Scalars[i]))
	}
	for _, t := range m.Types {
		word(uint64(t))
	}
	for _, o := range m.Offsets {
		word(uint64(o))
	}
	for _, c := range m.Conn {
		word(uint64(c))
	}
	return h.Sum64()
}

// The output and the operation profile of an off-centre clip, recorded at
// the parent of the PR that welds straight from the collector segments
// (commit 6b4107e, identical at 1, 2 and 4 workers there): removing the
// merged copy and the map-based dedup changed neither.
func TestClipMatchesParentRecording(t *testing.T) {
	for _, rec := range []struct {
		n                   int
		points, cells, conn int
		digest              uint64
		profile             ops.Profile
	}{
		{n: 16, points: 5714, cells: 8494, conn: 47592, digest: 0x5a43682f1a0c4d1f, profile: ops.Profile{Flops: 0x4f4d6, IntOps: 0x5ad7e, Branches: 0x8ec0, LoadBytes: [4]uint64{0x0, 0x12f000, 0xe9100, 0x0}, StoreBytes: [4]uint64{0x1abe28, 0x0, 0x0, 0x0}, RandomAccesses: 0x7488, Launches: 0x2, WorkingSetBytes: 0x4afe0}},
		{n: 32, points: 37409, cells: 48330, conn: 305968, digest: 0x50000caaaf59e72d, profile: ops.Profile{Flops: 0x1d8046, IntOps: 0x1dca4a, Branches: 0x34220, LoadBytes: [4]uint64{0x0, 0x94b800, 0x464580, 0x0}, StoreBytes: [4]uint64{0xac75c8, 0x0, 0x0, 0x0}, RandomAccesses: 0x2322c, Launches: 0x2, WorkingSetBytes: 0x1f9b38}},
	} {
		for _, nw := range []int{1, 2, 4} {
			pool := par.NewPool(nw)
			res, err := New(Options{Field: "energy", Center: mesh.Vec3{0.45, 0.5, 0.55}, Radius: 0.3}).Run(energyGrid(t, rec.n), viz.NewExec(pool))
			pool.Close()
			if err != nil {
				t.Fatal(err)
			}
			m := res.Cells
			if len(m.Points) != rec.points || m.NumCells() != rec.cells || len(m.Conn) != rec.conn {
				t.Errorf("n=%d nw=%d: %d points, %d cells, %d connectivity entries; recorded %d, %d, %d",
					rec.n, nw, len(m.Points), m.NumCells(), len(m.Conn), rec.points, rec.cells, rec.conn)
			}
			if got := cellsDigest(m); got != rec.digest {
				t.Errorf("n=%d nw=%d: output digest %#x, recorded %#x", rec.n, nw, got, rec.digest)
			}
			if res.Profile != rec.profile {
				t.Errorf("n=%d nw=%d: profile\n got %+v\nwant %+v", rec.n, nw, res.Profile, rec.profile)
			}
		}
	}
}

// allocPerRun returns the bytes one Run of f allocates on a one-worker
// pool, averaged over three runs after a first one.
func allocPerRun(t *testing.T, f viz.Filter, g *mesh.UniformGrid) uint64 {
	t.Helper()
	pool := par.NewPool(1)
	defer pool.Close()
	run := func() {
		if _, err := f.Run(g, viz.NewExec(pool)); err != nil {
			t.Fatal(err)
		}
	}
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 3; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / 3
}

// Clip allocates about what it returns: no per-cell soup of points, no
// weld arrays. At 32³ a run allocated 11,391,648 bytes when it welded by
// position and 3,286,184 once points were keyed; the bound is 1.5× the
// latter.
func TestClipAllocatesAboutItsOutput(t *testing.T) {
	const bound = 3_286_184 * 3 / 2
	got := allocPerRun(t, New(Options{Field: "energy", Center: mesh.Vec3{0.45, 0.5, 0.55}, Radius: 0.3}), energyGrid(t, 32))
	t.Logf("clip 32^3 allocates %d bytes per run", got)
	if got > bound {
		t.Errorf("clip 32^3 allocates %d bytes per run, above %d", got, bound)
	}
}
