package isovolume

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

// xGrid has point field equal to the x coordinate, so isovolumes are
// exact slabs.
func xGrid(t testing.TB, n int) *mesh.UniformGrid {
	t.Helper()
	g, err := mesh.NewCubeGrid(n)
	if err != nil {
		t.Fatal(err)
	}
	f := g.AddPointField("energy")
	for id := 0; id < g.NumPoints(); id++ {
		f[id] = g.PointPosition(id)[0]
	}
	return g
}

func TestIsovolumeExactSlabVolume(t *testing.T) {
	g := xGrid(t, 10)
	res, err := New(Options{Field: "energy", Lo: 0.3, Hi: 0.7}).Run(g, viz.NewExec(par.NewPool(2)))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Cells.Validate(); err != nil {
		t.Fatalf("invalid output: %v", err)
	}
	got := meshVolume(res.Cells)
	// A linear field cut by two planes: volume is exactly 0.4 (linear
	// interpolation reproduces planes exactly).
	if math.Abs(got-0.4) > 1e-9 {
		t.Errorf("isovolume volume = %v, want 0.4 exactly", got)
	}
}

func TestIsovolumeScalarsWithinRange(t *testing.T) {
	g := xGrid(t, 8)
	res, err := New(Options{Field: "energy", Lo: 0.25, Hi: 0.75}).Run(g, viz.NewExec(par.NewPool(3)))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Cells.Scalars {
		if s < 0.25-1e-9 || s > 0.75+1e-9 {
			t.Fatalf("output scalar %v outside [0.25, 0.75]", s)
		}
	}
}

func TestIsovolumeEmptyRangeRejected(t *testing.T) {
	g := xGrid(t, 4)
	if _, err := New(Options{Field: "energy", Lo: 0.7, Hi: 0.3}).Run(g, viz.NewExec(par.NewPool(1))); err == nil {
		t.Error("inverted range accepted")
	}
}

func TestIsovolumeDefaults(t *testing.T) {
	g := xGrid(t, 8)
	res, err := New(Options{}).Run(g, viz.NewExec(par.NewPool(2)))
	if err != nil {
		t.Fatal(err)
	}
	// Default [40%, 90%] of [0,1]: volume 0.5.
	got := meshVolume(res.Cells)
	if math.Abs(got-0.5) > 1e-9 {
		t.Errorf("default isovolume volume = %v, want 0.5", got)
	}
}

func TestIsovolumeMissingField(t *testing.T) {
	g, err := mesh.NewCubeGrid(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{Field: "nope"}).Run(g, viz.NewExec(par.NewPool(1))); err == nil {
		t.Error("missing field accepted")
	}
}

func TestIsovolumeAllInside(t *testing.T) {
	g := xGrid(t, 6)
	res, err := New(Options{Field: "energy", Lo: -10, Hi: 10}).Run(g, viz.NewExec(par.NewPool(2)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cells.NumCells() != g.NumCells() {
		t.Errorf("all-inside kept %d of %d cells", res.Cells.NumCells(), g.NumCells())
	}
	for i := 0; i < res.Cells.NumCells(); i++ {
		if ct, _ := res.Cells.Cell(i); ct != mesh.Hex {
			t.Fatal("all-inside cell not passed through as hex")
		}
	}
}

func TestIsovolumeDeterministicAcrossWorkers(t *testing.T) {
	opt := Options{Field: "energy", Lo: 0.2, Hi: 0.6}
	r1, err := New(opt).Run(xGrid(t, 8), viz.NewExec(par.NewPool(1)))
	if err != nil {
		t.Fatal(err)
	}
	r4, err := New(opt).Run(xGrid(t, 8), viz.NewExec(par.NewPool(4)))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cells.NumCells() != r4.Cells.NumCells() {
		t.Errorf("cells differ: %d vs %d", r1.Cells.NumCells(), r4.Cells.NumCells())
	}
	if math.Abs(meshVolume(r1.Cells)-meshVolume(r4.Cells)) > 1e-12 {
		t.Error("volume differs across worker counts")
	}
}

func TestIsovolumeProfileStridedHeavy(t *testing.T) {
	g := xGrid(t, 10)
	res, err := New(Options{Field: "energy", Lo: 0.3, Hi: 0.7}).Run(g, viz.NewExec(par.NewPool(2)))
	if err != nil {
		t.Fatal(err)
	}
	p := res.Profile
	// Corner gathers dominate: strided loads exceed stream loads
	// (ops.Strided == 1, ops.Stream == 0).
	if p.LoadBytes[1] <= p.LoadBytes[0] {
		t.Errorf("expected strided-dominated loads: %v", p.LoadBytes)
	}
}

// radialGrid has the squared distance from an off-centre point as its
// field, so the default [40%, 90%] range is a curved shell.
func radialGrid(t testing.TB, n int) *mesh.UniformGrid {
	t.Helper()
	g, err := mesh.NewCubeGrid(n)
	if err != nil {
		t.Fatal(err)
	}
	f := g.AddPointField("energy")
	for id := 0; id < g.NumPoints(); id++ {
		p := g.PointPosition(id)
		x, y, z := p[0]-0.4, p[1]-0.5, p[2]-0.6
		f[id] = x*x + y*y + z*z
	}
	return g
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

// The output and the operation profile of a curved-shell isovolume,
// recorded at the parent of the PR that welds straight from the collector
// segments (commit 6b4107e, identical at 1, 2 and 4 workers there):
// removing the merged copy and the map-based dedup changed neither.
func TestIsovolumeMatchesParentRecording(t *testing.T) {
	for _, rec := range []struct {
		n                   int
		points, cells, conn int
		digest              uint64
		profile             ops.Profile
	}{
		{n: 16, points: 3879, cells: 9114, conn: 38448, digest: 0x9fcf51b5deb07540, profile: ops.Profile{Flops: 0x9dae0, IntOps: 0x97c30, Branches: 0x17e40, LoadBytes: [4]uint64{0x0, 0xc3e00, 0x11bb00, 0x0}, StoreBytes: [4]uint64{0x151ec0, 0x0, 0x0, 0x0}, RandomAccesses: 0x8dd8, Launches: 0x1, WorkingSetBytes: 0x2f7a0}},
		{n: 32, points: 18740, cells: 40642, conn: 184568, digest: 0x38cc1a22ac40b85e, profile: ops.Profile{Flops: 0x2bc580, IntOps: 0x29dc00, Branches: 0x74500, LoadBytes: [4]uint64{0x0, 0x4eec00, 0x4be500, 0x0}, StoreBytes: [4]uint64{0x6562e0, 0x0, 0x0, 0x0}, RandomAccesses: 0x25f28, Launches: 0x1, WorkingSetBytes: 0xfd328}},
	} {
		for _, nw := range []int{1, 2, 4} {
			pool := par.NewPool(nw)
			res, err := New(Options{Field: "energy"}).Run(radialGrid(t, rec.n), viz.NewExec(pool))
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

// Widening the range never lowers the kept volume: on a curved field,
// each range of a nested sequence keeps at least the volume of the one
// inside it, at 1 and 4 workers. The volumes are sums of tet volumes, so
// they are compared to 1e-12 of the unit cube's.
func TestIsovolumeMonotoneInRange(t *testing.T) {
	const tol = 1e-12
	g := radialGrid(t, 12)
	// Nested around 0.3; the field spans [0, 0.97].
	ranges := [][2]float64{{0.29, 0.31}, {0.25, 0.35}, {0.2, 0.45}, {0.1, 0.6}, {0.01, 0.97}}
	for _, nw := range []int{1, 4} {
		pool := par.NewPool(nw)
		prev := 0.0
		for _, r := range ranges {
			res, err := New(Options{Field: "energy", Lo: r[0], Hi: r[1]}).Run(g, viz.NewExec(pool))
			if err != nil {
				t.Fatal(err)
			}
			v := meshVolume(res.Cells)
			if v < prev-tol {
				t.Errorf("nw=%d: [%g, %g] keeps volume %.15g, below the %.15g of the range inside it", nw, r[0], r[1], v, prev)
			}
			prev = v
		}
		pool.Close()
		if prev <= 0 || prev > 1+tol {
			t.Errorf("nw=%d: the widest range keeps volume %g, want within (0, 1]", nw, prev)
		}
	}
}

// Isovolume allocates about what it returns: no per-cell soup of points,
// no weld arrays. At 32³ a run allocated 9,988,906 bytes when it welded
// by position and 2,243,917 once points were keyed; the bound is 1.5×
// the latter.
func TestIsovolumeAllocatesAboutItsOutput(t *testing.T) {
	const bound = 2_243_917 * 3 / 2
	pool := par.NewPool(1)
	defer pool.Close()
	f, g := New(Options{Field: "energy"}), radialGrid(t, 32)
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
	got := (after.TotalAlloc - before.TotalAlloc) / 3
	t.Logf("isovolume 32^3 allocates %d bytes per run", got)
	if got > bound {
		t.Errorf("isovolume 32^3 allocates %d bytes per run, above %d", got, bound)
	}
}
