package threshold

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/mesh"
	"repro/internal/ops"
	"repro/internal/par"
	"repro/internal/viz"
)

// waveGrid has a cell field whose upper half is a set of irregular blobs,
// so layers keep scattered cells that share corners: the point dedup and
// the layer seams both shape the output.
func waveGrid(t testing.TB, n int) *mesh.UniformGrid {
	return waveBox(t, [3]int{n, n, n}, 1/float64(n))
}

// waveBox is waveGrid's field on a box of dims cells of side h.
func waveBox(t testing.TB, dims [3]int, h float64) *mesh.UniformGrid {
	t.Helper()
	g, err := mesh.NewUniformGrid([3]int{dims[0] + 1, dims[1] + 1, dims[2] + 1}, mesh.Vec3{}, mesh.Vec3{h, h, h})
	if err != nil {
		t.Fatal(err)
	}
	cf := g.AddCellField("e")
	for c := range cf {
		p := g.CellCenter(c)
		cf[c] = math.Sin(7*p[0]) * math.Cos(5*p[1]+2*p[2]) * (1 + p[2])
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

// recording is one threshold run pinned at a parent commit.
type recording struct {
	n             int
	points, cells int
	digest        uint64
	profile       ops.Profile
}

// assertRecordings thresholds the upper half of waveGrid(n) under backend
// at 1, 2 and 4 workers and compares each run with its recording.
func assertRecordings(t *testing.T, backend viz.Backend, recs []recording) {
	t.Helper()
	for _, rec := range recs {
		for _, nw := range []int{1, 2, 4} {
			pool := par.NewPool(nw)
			res, err := New(Options{Field: "e", Backend: backend}).Run(waveGrid(t, rec.n), viz.NewExec(pool))
			pool.Close()
			if err != nil {
				t.Fatal(err)
			}
			m := res.Cells
			if len(m.Points) != rec.points || m.NumCells() != rec.cells {
				t.Errorf("n=%d nw=%d: %d points, %d cells; recorded %d, %d", rec.n, nw, len(m.Points), m.NumCells(), rec.points, rec.cells)
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

// The output and the operation profile of an irregular threshold. The
// profiles were recorded at commit 69bcda9, before the emitters were
// sized by count → scan → fill, identical at 1, 2 and 4 workers there.
// The points, cells and digest are that commit's output welded by
// position (WeldPointsPool at 1e-9), which threshold now writes itself.
func TestThresholdMatchesParentRecording(t *testing.T) {
	assertRecordings(t, viz.Traditional, []recording{
		{n: 16, points: 2973, cells: 1992, digest: 0x9fa9821408a478ec, profile: ops.Profile{Flops: 0x1000, IntOps: 0x10900, Branches: 0x1000, LoadBytes: [4]uint64{0x18000, 0x7c800, 0x0, 0x0}, StoreBytes: [4]uint64{0x92100, 0x0, 0x0, 0x0}, RandomAccesses: 0x0, Launches: 0x1, WorkingSetBytes: 0x4df78}},
		{n: 32, points: 19951, cells: 16134, digest: 0xb0d67fb72f25a49a, profile: ops.Profile{Flops: 0x8000, IntOps: 0x860c0, Branches: 0x8000, LoadBytes: [4]uint64{0xc0000, 0x3f0600, 0x0, 0x0}, StoreBytes: [4]uint64{0x49e6c0, 0x0, 0x0, 0x0}, RandomAccesses: 0x0, Launches: 0x1, WorkingSetBytes: 0x203758}},
	})
}

// The same threshold under the DPP formulation, recorded the same way.
func TestThresholdDPPMatchesParentRecording(t *testing.T) {
	assertRecordings(t, viz.DPP, []recording{
		{n: 16, points: 2973, cells: 1992, digest: 0x9fa9821408a478ec, profile: ops.Profile{Flops: 0x1000, IntOps: 0x21200, Branches: 0x1000, LoadBytes: [4]uint64{0x11f20, 0x7c800, 0x0, 0x0}, StoreBytes: [4]uint64{0x96020, 0x0, 0x0, 0x0}, RandomAccesses: 0x0, Launches: 0x4, WorkingSetBytes: 0x55f78}},
		{n: 32, points: 19951, cells: 16134, digest: 0xb0d67fb72f25a49a, profile: ops.Profile{Flops: 0x8000, IntOps: 0x10c180, Branches: 0x8000, LoadBytes: [4]uint64{0x8fc18, 0x3f0600, 0x0, 0x0}, StoreBytes: [4]uint64{0x4be2d8, 0x0, 0x0, 0x0}, RandomAccesses: 0x0, Launches: 0x4, WorkingSetBytes: 0x243758}},
	})
}
