package mesh

import (
	"repro/internal/dpp"
	"repro/internal/par"
)

// weldShards caps the dedup shard count: enough for the worker counts the
// study sweeps (1–32 in the paper's Fig. 2) without paying a 1/32 table-load
// penalty on small pools.
const weldShards = 16

// weldKey quantizes a point to the tolerance grid (inv = 1/tol), rounding
// to the nearest grid line: bucket k is [k-0.5, k+0.5)·tol on every axis,
// negative coordinates included.
func weldKey(p Vec3, inv float64) [3]int64 {
	return [3]int64{floor(p[0]*inv + 0.5), floor(p[1]*inv + 0.5), floor(p[2]*inv + 0.5)}
}

// floor is int64(math.Floor(x)) for |x| < 2^63, without math.Floor's
// call: the conversion truncates toward zero, one step too high for a
// negative non-integer.
func floor(x float64) int64 {
	i := int64(x)
	if float64(i) > x {
		i--
	}
	return i
}

// weldHash mixes a quantized key. The weld keeps its high half per point
// (shardSlot splits that into a shard and a home slot). It must be
// deterministic across runs (it affects nothing but load balance, still).
func weldHash(k [3]int64) uint64 {
	h := uint64(k[0])*0x9E3779B97F4A7C15 ^ uint64(k[1])*0xC2B2AE3D27D4EB4F ^ uint64(k[2])*0x165667B19E3779F9
	h ^= h >> 29
	return h * 0xBF58476D1CE4E5B9
}

// shardSlot splits a point's 32-bit hash h into its shard, of nShards,
// and its home slot in a table of size slots: h·nShards/2³² is the shard
// and the fraction left over, scaled by size, the slot. Multiplies, not a
// division by nShards, which is not a constant.
func shardSlot(h uint32, nShards, size uint64) (shard, slot uint64) {
	x := uint64(h) * nShards
	return x >> 32, uint64(uint32(x)) * size >> 32
}

// WeldPointsPool merges coincident points of an unstructured mesh (within
// tol) and rewrites the connectivity, returning the welded mesh. Filters
// that assemble cells from independently-clipped tetrahedra produce
// duplicated vertices along shared faces; welding restores shared
// connectivity so interior faces pair up in ExternalFaces. A nil pool runs
// the same passes inline on the caller.
//
// Every point is quantized and hashed once, then deduplicated in hash
// shards scanned concurrently — each shard streams the hashes in index
// order and quantizes only its own points, so the representative of
// every key is its first occurrence and the output is identical to a
// serial weld whatever the hash — the representatives are compacted with
// a blocked parallel prefix sum, and points, scalars, cell structure and
// remapped connectivity are written once, into exactly-sized arrays. The
// working arrays, 16 bytes per input point (a 4-byte hash, a 4-byte
// representative and 8 bytes of table), live for the call only.
func WeldPointsPool(m *UnstructuredMesh, tol float64, pool *par.Pool) *UnstructuredMesh {
	if pool == nil {
		// A one-worker pool runs every loop on its caller.
		pool = par.NewPool(1)
	}
	if tol <= 0 {
		tol = 1e-9
	}
	inv := 1 / tol
	n := len(m.Points)
	out := NewUnstructuredMesh()
	if n == 0 {
		return out
	}

	nShards := uint64(min(pool.Workers(), weldShards))
	// hash is each point's key hash. rep is the index of the first point
	// with the same key. table is the shards' open-addressed tables end to
	// end, each twice its shard's point count: a slot holds a point index +
	// 1, zero when free. Once every point has its representative the
	// tables are dead and the first half of the memory holds the output
	// indices.
	hash := make([]uint32, n)
	rep := make([]int32, n)
	table := make([]int32, 2*n)

	// Pass 1: hash every point and count each shard's points, which sizes
	// its table.
	counts := par.Reduce(pool, n, 0,
		func() (c [weldShards]int) { return },
		func(lo, hi int, c [weldShards]int) [weldShards]int {
			for i := lo; i < hi; i++ {
				h := uint32(weldHash(weldKey(m.Points[i], inv)) >> 32)
				hash[i] = h
				shard, _ := shardSlot(h, nShards, 0)
				c[shard]++
			}
			return c
		},
		func(a, b [weldShards]int) [weldShards]int {
			for s := range a {
				a[s] += b[s]
			}
			return a
		})
	var start [weldShards + 1]int
	for s, c := range counts {
		start[s+1] = start[s] + 2*c
	}

	// Pass 2: each shard streams the hashes in index order and records the
	// first occurrence of each of its keys in a linear-probed table at most
	// half full. A slot holds only the point's index: the keys are compared
	// only when the hashes match, and quantized only when the points differ.
	// Shards partition the key space, so the walks are independent.
	pool.ForEach(int(nShards), func(shard, _ int) {
		tab := table[start[shard]:start[shard+1]]
		size := uint64(len(tab))
		for i, h := range hash {
			s, slot := shardSlot(h, nShards, size)
			if s != uint64(shard) {
				continue
			}
			p := m.Points[i]
			for {
				first := tab[slot] - 1
				if first < 0 {
					tab[slot], first = int32(i)+1, int32(i)
				}
				if first == int32(i) || hash[first] == h && (m.Points[first] == p || weldKey(m.Points[first], inv) == weldKey(p, inv)) {
					rep[i] = first
					break
				}
				if slot++; slot == size {
					slot = 0
				}
			}
		}
	})

	// Pass 3: flag representatives, exclusive-scan the flags to assign
	// compact output indices, then scatter points and scalars in parallel
	// through the scanned indices.
	newID := table[:n]
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
				out.Points[newID[i]] = m.Points[i]
				out.Scalars[newID[i]] = m.Scalars[i]
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
	return out
}
