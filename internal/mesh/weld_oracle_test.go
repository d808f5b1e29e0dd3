package mesh

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dpp"
	"repro/internal/par"
)

// This file keeps the weld as it stood before the flat-table rewrite —
// [3]int64 keys, one Go map per shard, a finished mesh in — moved here
// verbatim (names prefixed, nothing else changed) as the definition the
// production weld (weld.go) is held to, bit for bit.

// oracleWeldShards caps the dedup shard count: enough for the worker counts the
// study sweeps (1–32 in the paper's Fig. 2) without paying a 1/32 map-load
// penalty on small pools.
const oracleWeldShards = 16

// oracleWeldScratch holds the per-call working arrays, leased from the pool so a
// steady-state sweep welds without reallocating them.
type oracleWeldScratch struct {
	keys  [][3]int64 // quantized coordinates per input point
	shard []uint8    // dedup shard per input point
	rep   []int32    // index of the first point with the same key
	newID []int32    // output index, defined for representatives only
	maps  []map[[3]int64]int32
}

type oracleWeldScratchKey struct{}

// oracleWeldHash mixes a quantized key into a shard id; it must be deterministic
// across runs (shard assignment affects nothing but load balance, still).
func oracleWeldHash(k [3]int64) uint64 {
	h := uint64(k[0])*0x9E3779B97F4A7C15 ^ uint64(k[1])*0xC2B2AE3D27D4EB4F ^ uint64(k[2])*0x165667B19E3779F9
	h ^= h >> 29
	return h * 0xBF58476D1CE4E5B9
}

// weldPointsOracle merges coincident points of an unstructured mesh (within
// tol) and rewrites the connectivity, returning the welded mesh. Filters
// that assemble cells from independently-clipped tetrahedra produce
// duplicated vertices along shared faces; welding restores shared
// connectivity so interior faces pair up in ExternalFaces. Points are
// quantized in parallel, deduplicated in hash shards scanned concurrently
// (each shard scans all points in index order, so the representative of
// every key is its first occurrence — the output is identical to a serial
// weld), compacted with a blocked parallel prefix sum, and the
// connectivity is remapped in parallel. A nil pool runs the same passes
// serially.
func weldPointsOracle(m *UnstructuredMesh, tol float64, pool *par.Pool) *UnstructuredMesh {
	if tol <= 0 {
		tol = 1e-9
	}
	if pool == nil {
		pool = oracleSerialWeldPool
	}
	inv := 1 / tol
	n := len(m.Points)
	out := NewUnstructuredMesh()
	if n == 0 {
		return out
	}

	nShards := pool.Workers()
	if nShards > oracleWeldShards {
		nShards = oracleWeldShards
	}
	ws, _ := pool.GetScratch(oracleWeldScratchKey{}).(*oracleWeldScratch)
	if ws == nil {
		ws = &oracleWeldScratch{}
	}
	if cap(ws.keys) < n {
		ws.keys = make([][3]int64, n)
		ws.shard = make([]uint8, n)
		ws.rep = make([]int32, n)
		ws.newID = make([]int32, n)
	}
	keys, shard, rep, newID := ws.keys[:n], ws.shard[:n], ws.rep[:n], ws.newID[:n]
	for len(ws.maps) < nShards {
		ws.maps = append(ws.maps, make(map[[3]int64]int32))
	}

	// Pass 1: quantize every point and assign its dedup shard.
	pool.For(n, 0, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			p := m.Points[i]
			k := [3]int64{int64(p[0]*inv + 0.5), int64(p[1]*inv + 0.5), int64(p[2]*inv + 0.5)}
			keys[i] = k
			shard[i] = uint8(oracleWeldHash(k) % uint64(nShards))
		}
	})

	// Pass 2: each shard scans all points in index order and records the
	// first occurrence of each key. Shards partition the key space, so the
	// scans are independent.
	pool.ForEach(nShards, func(s, _ int) {
		mp := ws.maps[s]
		if len(mp) > 0 {
			clear(mp)
		}
		sh := uint8(s)
		for i := 0; i < n; i++ {
			if shard[i] != sh {
				continue
			}
			if first, ok := mp[keys[i]]; ok {
				rep[i] = first
			} else {
				mp[keys[i]] = int32(i)
				rep[i] = int32(i)
			}
		}
	})

	// Pass 3: flag representatives, exclusive-scan the flags to assign
	// compact output indices (dpp.ScanExclusive is the generalization of
	// the blocked prefix sum this pass used to hand-roll), then scatter
	// points and scalars in parallel through the scanned indices.
	pool.For(n, 0, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			if rep[i] == int32(i) {
				newID[i] = 1
			} else {
				newID[i] = 0
			}
		}
	})
	unique := int(dpp.ScanExclusive(pool, newID, newID))
	out.Points = make([]Vec3, unique)
	out.Scalars = make([]float64, unique)
	pool.For(n, 0, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			if rep[i] == int32(i) {
				id := newID[i]
				out.Points[id] = m.Points[i]
				out.Scalars[id] = m.Scalars[i]
			}
		}
	})

	// Pass 4: the cell structure is unchanged by welding — copy types and
	// offsets, remap connectivity through the representative's new index.
	out.Types = append(out.Types, m.Types...)
	if len(m.Offsets) != 0 {
		out.Offsets = append(out.Offsets[:0], m.Offsets...)
	}
	out.Conn = make([]int32, len(m.Conn))
	pool.For(len(m.Conn), 0, func(lo, hi, _ int) {
		for j := lo; j < hi; j++ {
			out.Conn[j] = newID[rep[m.Conn[j]]]
		}
	})

	pool.PutScratch(oracleWeldScratchKey{}, ws)
	return out
}

// oracleSerialWeldPool services callers that pass no pool; a one-worker pool
// runs every pass inline on the caller.
var oracleSerialWeldPool = par.NewPool(1)

// weldCase is a random mesh built to exercise the dedup: points sit on a
// coarse lattice that straddles the origin (so keys repeat and coordinates
// go negative), displaced by exact zero, by fractions of the tolerance
// either side of a rounding boundary, and by more than the tolerance.
func weldCase(rng *rand.Rand, nPts, nCells int) *UnstructuredMesh {
	nudge := []float64{0, 0, 0.3e-9, 0.49e-9, 0.51e-9, -0.49e-9, -0.51e-9, 1.2e-9, -2e-9}
	m := NewUnstructuredMesh()
	coord := func() float64 { return float64(rng.Intn(9)-4)*0.25 + nudge[rng.Intn(len(nudge))] }
	for i := 0; i < nPts; i++ {
		m.AddPoint(Vec3{coord(), coord(), coord()}, rng.Float64())
	}
	types := []CellType{Tet, Pyramid, Wedge, Hex}
	for c := 0; c < nCells && nPts > 0; c++ {
		t := types[rng.Intn(len(types))]
		conn := make([]int32, t.NumCellPoints())
		for j := range conn {
			conn[j] = int32(rng.Intn(nPts))
		}
		m.AddCell(t, conn...)
	}
	return m
}

func TestWeldMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cases := []*UnstructuredMesh{
		NewUnstructuredMesh(), // n = 0
		weldCase(rng, 1, 0),
		weldCase(rng, 40, 0), // points, no cells
		weldCase(rng, 3, 5),  // fewer points than shards
	}
	for i := 0; i < 12; i++ {
		cases = append(cases, weldCase(rng, 1+rng.Intn(6000), rng.Intn(3000)))
	}
	for _, nw := range []int{1, 2, 4} {
		pool := par.NewPool(nw)
		for ci, m := range cases {
			for _, tol := range []float64{1e-9, 0, 0.3} {
				want := weldPointsOracle(m, tol, pool)
				got := WeldPointsPool(m, tol, pool)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("nw=%d case %d (%d points, %d cells) tol=%g: weld differs from the map-based oracle (%d vs %d points)",
						nw, ci, len(m.Points), m.NumCells(), tol, len(got.Points), len(want.Points))
				}
				if err := got.Validate(); err != nil {
					t.Fatalf("nw=%d case %d: %v", nw, ci, err)
				}
			}
		}
		pool.Close()
	}
	// A nil pool is the same weld.
	for ci, m := range cases {
		if got, want := WeldPointsPool(m, 1e-9, nil), weldPointsOracle(m, 1e-9, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("nil pool, case %d: weld differs from the oracle", ci)
		}
	}
}

// emitWeldItem emits loop item i's cells into part the way clip and
// isovolume do: every cell brings its own points, so neighbours duplicate
// them, across items and across segments. Some items emit nothing.
func emitWeldItem(seed int64, i int, part *UnstructuredMesh) {
	rng := rand.New(rand.NewSource(seed + int64(i)*7919))
	for c := rng.Intn(4); c > 0; c-- {
		t := Tet
		if rng.Intn(3) == 0 {
			t = Hex
		}
		conn := make([]int32, t.NumCellPoints())
		for j := range conn {
			p := Vec3{float64(rng.Intn(7)-3) * 0.5, float64(rng.Intn(7)-3) * 0.5, float64(rng.Intn(3)-1) * 0.5}
			if rng.Intn(4) == 0 {
				p[0] += 0.4e-9 // within the tolerance of its lattice point
			}
			conn[j] = part.AddPoint(p, p[0]+2*p[1]+4*p[2])
		}
		part.AddCell(t, conn...)
	}
}

// Welding any segmentation of a mesh straight from the collector equals
// welding the merged mesh: the grain (where the segments are cut) and the
// worker count (which scratch holds them, in what order) are free.
func TestReleaseWeldedMatchesWeldOfMerged(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		seed := rng.Int63()
		items := rng.Intn(400) // 0: no segment at all
		serial := NewUnstructuredMesh()
		for i := 0; i < items; i++ {
			emitWeldItem(seed, i, serial)
		}
		want := weldPointsOracle(serial, 1e-9, nil)
		for _, nw := range []int{1, 2, 4} {
			pool := par.NewPool(nw)
			for round := 0; round < 2; round++ { // second round: warm scratch
				grain := 1 + rng.Intn(items+1)
				collect := func() *CellCollector {
					col := AcquireCellCollector(pool)
					pool.For(items, grain, func(lo, hi, worker int) {
						part := col.Seg(lo, worker)
						for i := lo; i < hi; i++ {
							emitWeldItem(seed, i, part)
						}
					})
					return col
				}
				merged := NewUnstructuredMesh()
				collect().Release(merged)
				if !reflect.DeepEqual(merged, serial) {
					t.Fatalf("trial %d nw=%d grain=%d: merged mesh differs from serial emission", trial, nw, grain)
				}
				got, preWeld := collect().ReleaseWelded(1e-9)
				if preWeld != len(serial.Points) {
					t.Fatalf("trial %d nw=%d grain=%d: pre-weld count %d, want %d", trial, nw, grain, preWeld, len(serial.Points))
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d nw=%d grain=%d (%d items): ReleaseWelded differs from the weld of the merged mesh (%d vs %d points)",
						trial, nw, grain, items, len(got.Points), len(want.Points))
				}
			}
			pool.Close()
		}
	}
}
