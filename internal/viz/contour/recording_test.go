package contour

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

// triDigest hashes every array of the mesh, bit for bit.
func triDigest(m *mesh.TriMesh) uint64 {
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
	for _, tr := range m.Tris {
		word(uint64(uint32(tr[0])))
		word(uint64(uint32(tr[1])))
		word(uint64(uint32(tr[2])))
	}
	return h.Sum64()
}

// recording is one filter run pinned at a parent commit: counts, output
// digest and the full operation profile.
type recording struct {
	n            int
	points, tris int
	digest       uint64
	profile      ops.Profile
}

// assertRecordings runs the ten default spheres of sphereGrid(n) under
// backend at 1, 2 and 4 workers and compares each run with its recording.
func assertRecordings(t *testing.T, backend viz.Backend, recs []recording) {
	t.Helper()
	for _, rec := range recs {
		for _, nw := range []int{1, 2, 4} {
			pool := par.NewPool(nw)
			res, err := New(Options{Field: "r", Backend: backend}).Run(sphereGrid(t, rec.n), viz.NewExec(pool))
			pool.Close()
			if err != nil {
				t.Fatal(err)
			}
			m := res.Tris
			if len(m.Points) != rec.points || len(m.Tris) != rec.tris {
				t.Errorf("n=%d nw=%d: %d points, %d triangles; recorded %d, %d", rec.n, nw, len(m.Points), len(m.Tris), rec.points, rec.tris)
			}
			if got := triDigest(m); got != rec.digest {
				t.Errorf("n=%d nw=%d: output digest %#x, recorded %#x", rec.n, nw, got, rec.digest)
			}
			if res.Profile != rec.profile {
				t.Errorf("n=%d nw=%d: profile\n got %+v\nwant %+v", rec.n, nw, res.Profile, rec.profile)
			}
		}
	}
}

// The output and the operation profile of the ten default spheres,
// recorded at the parent of the PR that sizes the emitters by count →
// scan → fill (commit 69bcda9, identical at 1, 2 and 4 workers there).
// The points and digest are that output with each isovalue's surface
// welded by position on its own (WeldPointsPool at 1e-9), which contour
// now writes itself.
func TestContourMatchesParentRecording(t *testing.T) {
	assertRecordings(t, viz.Traditional, []recording{
		{n: 16, points: 15416, tris: 29184, digest: 0xdb3a5566f3ba63fb, profile: ops.Profile{Flops: 0x1b8b00, IntOps: 0xc1980, Branches: 0x3b700, LoadBytes: [4]uint64{0x0, 0x36b800, 0x0, 0x0}, StoreBytes: [4]uint64{0x2ac000, 0x0, 0x0, 0x0}, RandomAccesses: 0x0, Launches: 0xa, WorkingSetBytes: 0xa1788}},
		{n: 32, points: 59504, tris: 115848, digest: 0x5e7d0028e4aacc95, profile: ops.Profile{Flops: 0x95b358, IntOps: 0x4e4f80, Branches: 0x165300, LoadBytes: [4]uint64{0x0, 0x17a9800, 0x0, 0x0}, StoreBytes: [4]uint64{0xa9b300, 0x0, 0x0, 0x0}, RandomAccesses: 0x0, Launches: 0xa, WorkingSetBytes: 0x2a1c08}},
	})
}

// The same spheres under the DPP formulation, recorded at the same commit.
func TestContourDPPMatchesParentRecording(t *testing.T) {
	assertRecordings(t, viz.DPP, []recording{
		{n: 16, points: 15416, tris: 29184, digest: 0xdb3a5566f3ba63fb, profile: ops.Profile{Flops: 0x1b8b00, IntOps: 0x143980, Branches: 0x10d700, LoadBytes: [4]uint64{0x50000, 0x3ba000, 0x0, 0x0}, StoreBytes: [4]uint64{0x2fc000, 0x0, 0x0, 0x0}, RandomAccesses: 0x0, Launches: 0x1e, WorkingSetBytes: 0xa5788}},
		{n: 32, points: 59504, tris: 115848, digest: 0x5e7d0028e4aacc95, profile: ops.Profile{Flops: 0x95b358, IntOps: 0x8f4f80, Branches: 0x7f5300, LoadBytes: [4]uint64{0x280000, 0x18e2000, 0x0, 0x0}, StoreBytes: [4]uint64{0xd1b300, 0x0, 0x0, 0x0}, RandomAccesses: 0x0, Launches: 0x1e, WorkingSetBytes: 0x2c1c08}},
	})
}
