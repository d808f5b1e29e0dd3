package mesh

import (
	"repro/internal/dpp"
	"repro/internal/par"
)

// weldShards caps the dedup shard count: enough for the worker counts the
// study sweeps (1–32 in the paper's Fig. 2) without paying a 1/32 map-load
// penalty on small pools.
const weldShards = 16

// weldScratch holds the per-call working arrays, leased from the pool so a
// steady-state sweep welds without reallocating them.
type weldScratch struct {
	keys  [][3]int64 // quantized coordinates per input point
	shard []uint8    // dedup shard per input point
	rep   []int32    // index of the first point with the same key
	newID []int32    // output index, defined for representatives only
	maps  []map[[3]int64]int32
}

type weldScratchKey struct{}

// weldHash mixes a quantized key into a shard id; it must be deterministic
// across runs (shard assignment affects nothing but load balance, still).
func weldHash(k [3]int64) uint64 {
	h := uint64(k[0])*0x9E3779B97F4A7C15 ^ uint64(k[1])*0xC2B2AE3D27D4EB4F ^ uint64(k[2])*0x165667B19E3779F9
	h ^= h >> 29
	return h * 0xBF58476D1CE4E5B9
}

// WeldPointsPool merges coincident points of an unstructured mesh (within
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
func WeldPointsPool(m *UnstructuredMesh, tol float64, pool *par.Pool) *UnstructuredMesh {
	if tol <= 0 {
		tol = 1e-9
	}
	if pool == nil {
		pool = serialWeldPool
	}
	inv := 1 / tol
	n := len(m.Points)
	out := NewUnstructuredMesh()
	if n == 0 {
		return out
	}

	nShards := pool.Workers()
	if nShards > weldShards {
		nShards = weldShards
	}
	ws, _ := pool.GetScratch(weldScratchKey{}).(*weldScratch)
	if ws == nil {
		ws = &weldScratch{}
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
			shard[i] = uint8(weldHash(k) % uint64(nShards))
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

	pool.PutScratch(weldScratchKey{}, ws)
	return out
}

// serialWeldPool services callers that pass no pool; a one-worker pool
// runs every pass inline on the caller.
var serialWeldPool = par.NewPool(1)
