package slice

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

// The output and the operation profile of the three default slices (the
// planes pass through grid points, so zero distances are exercised),
// recorded at the parent of the PR that sizes the emitters by count →
// scan → fill (commit 69bcda9, identical at 1, 2 and 4 workers there).
// The points and digest are that output with each plane's surface
// welded by position on its own (WeldPointsPool at 1e-9), which slice
// now writes itself; the planes share the points where they meet, and
// each keeps its own.
func TestSliceMatchesParentRecording(t *testing.T) {
	for _, rec := range []struct {
		n            int
		points, tris int
		digest       uint64
		profile      ops.Profile
	}{
		{n: 16, points: 867, tris: 6144, digest: 0x4cf6d41ddbdb9c83, profile: ops.Profile{Flops: 0x93e2b, IntOps: 0x50172, Branches: 0x12000, LoadBytes: [4]uint64{0x0, 0x108000, 0x0, 0x0}, StoreBytes: [4]uint64{0xacc98, 0x0, 0x0, 0x0}, RandomAccesses: 0x0, Launches: 0x6, WorkingSetBytes: 0xa3310}},
		{n: 32, points: 3267, tris: 24576, digest: 0xa79adcdf1cc81c5d, profile: ops.Profile{Flops: 0x37ae3b, IntOps: 0x217ed2, Branches: 0x6c000, LoadBytes: [4]uint64{0x0, 0x720000, 0x0, 0x0}, StoreBytes: [4]uint64{0x312918, 0x0, 0x0, 0x0}, RandomAccesses: 0x0, Launches: 0x6, WorkingSetBytes: 0x2cc610}},
	} {
		for _, nw := range []int{1, 2, 4} {
			pool := par.NewPool(nw)
			res, err := New(Options{}).Run(energyGrid(t, rec.n), viz.NewExec(pool))
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
