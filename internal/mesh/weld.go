package mesh

import (
	"repro/internal/dpp"
	"repro/internal/par"
)

// weldShards caps the dedup shard count: enough for the worker counts the
// study sweeps (1–32 in the paper's Fig. 2) without paying a 1/32 table-load
// penalty on small pools.
const weldShards = 16

// weldScratch holds the per-call working arrays, 12 bytes per input point,
// leased from the pool so a steady-state sweep welds without reallocating
// them.
type weldScratch struct {
	rep []int32 // merged index of the first point with the same key
	// table is the shards' open-addressed tables end to end, each twice its
	// shard's point count: a slot holds a merged point index + 1, zero when
	// free. Once every point has its representative the tables are dead and
	// the first half of the memory holds the output indices.
	table []int32
}

type weldScratchKey struct{}

// weldKey quantizes a point to the tolerance grid (inv = 1/tol).
func weldKey(p Vec3, inv float64) [3]int64 {
	return [3]int64{int64(p[0]*inv + 0.5), int64(p[1]*inv + 0.5), int64(p[2]*inv + 0.5)}
}

// weldHash mixes a quantized key; its residue picks the dedup shard and its
// high half the home slot in the shard's table. It must be deterministic
// across runs (it affects nothing but load balance, still).
func weldHash(k [3]int64) uint64 {
	h := uint64(k[0])*0x9E3779B97F4A7C15 ^ uint64(k[1])*0xC2B2AE3D27D4EB4F ^ uint64(k[2])*0x165667B19E3779F9
	h ^= h >> 29
	return h * 0xBF58476D1CE4E5B9
}

// WeldPointsPool merges coincident points of an unstructured mesh (within
// tol) and rewrites the connectivity, returning the welded mesh. Filters
// that assemble cells from independently-clipped tetrahedra produce
// duplicated vertices along shared faces; welding restores shared
// connectivity so interior faces pair up in ExternalFaces. A nil pool runs
// the same passes inline on the caller and retains nothing.
func WeldPointsPool(m *UnstructuredMesh, tol float64, pool *par.Pool) *UnstructuredMesh {
	if pool == nil {
		// A one-worker pool runs every loop on its caller; it, and the
		// scratch parked in it, are garbage when this call returns.
		pool = par.NewPool(1)
	}
	tot := [numSpans]int{ptSpan: len(m.Points), cellSpan: m.NumCells(), connSpan: len(m.Conn)}
	whole := cellSeg{m: m}
	for a, n := range tot {
		whole.at[a].hi = n
	}
	return weldSegs([]cellSeg{whole}, tot, tol, pool)
}

// weldSegs welds the mesh whose points, cells and connectivity are the
// laid-out segments in merged order (tot elements of each array), without
// building that mesh: a collector's sorted segments
// (CellCollector.ReleaseWelded), or a finished mesh as one segment. Every
// point is quantized and deduplicated in hash shards scanned concurrently —
// each shard walks all points in merged order, so the representative of
// every key is its first occurrence and the output is identical to a serial
// weld — the representatives are compacted with a blocked parallel prefix
// sum, and points, scalars, cell structure and remapped connectivity are
// written once, into exactly-sized arrays.
func weldSegs(segs []cellSeg, tot [numSpans]int, tol float64, pool *par.Pool) *UnstructuredMesh {
	if tol <= 0 {
		tol = 1e-9
	}
	inv := 1 / tol
	n, nCells, nConn := tot[ptSpan], tot[cellSpan], tot[connSpan]
	out := NewUnstructuredMesh()
	if n == 0 {
		return out
	}

	nShards := uint64(min(pool.Workers(), weldShards))
	ws, _ := pool.GetScratch(weldScratchKey{}).(*weldScratch)
	if ws == nil {
		ws = &weldScratch{}
	}
	if cap(ws.rep) < n {
		ws.rep = make([]int32, n)
		ws.table = make([]int32, 2*n)
	}
	rep, table := ws.rep[:n], ws.table[:2*n]

	// Pass 1: count each shard's points, which sizes its table.
	counts := par.Reduce(pool, n, 0,
		func() (c [weldShards]int) { return },
		func(lo, hi int, c [weldShards]int) [weldShards]int {
			runs(segs, ptSpan, lo, hi, func(s *cellSeg, a, b int) {
				for _, p := range s.m.Points[a:b] {
					c[weldHash(weldKey(p, inv))%nShards]++
				}
			})
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

	// Pass 2: each shard walks all points in merged order and records the
	// first occurrence of each of its keys in a linear-probed table at most
	// half full. A slot holds only the point's index: the key it stands for
	// is requantized from the point on a compare. Shards partition the key
	// space, so the walks are independent.
	pool.ForEach(int(nShards), func(shard, _ int) {
		tab := table[start[shard]:start[shard+1]]
		clear(tab)
		size := uint64(len(tab))
		runs(segs, ptSpan, 0, n, func(s *cellSeg, a, b int) {
			d := s.at[ptSpan].dst - s.at[ptSpan].lo
			for j, p := range s.m.Points[a:b] {
				k := weldKey(p, inv)
				h := weldHash(k)
				if h%nShards != uint64(shard) {
					continue
				}
				i := int32(a + j + d)
				for slot := (h >> 32) * size >> 32; ; {
					first := tab[slot] - 1
					if first < 0 {
						tab[slot], first = i+1, i
					}
					if first == i || weldKey(mergedPoint(segs, int(first)), inv) == k {
						rep[i] = first
						break
					}
					if slot++; slot == size {
						slot = 0
					}
				}
			}
		})
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
		runs(segs, ptSpan, lo, hi, func(s *cellSeg, a, b int) {
			d := s.at[ptSpan].dst - s.at[ptSpan].lo
			for j := a; j < b; j++ {
				if i := j + d; rep[i] == int32(i) {
					out.Points[newID[i]] = s.m.Points[j]
					out.Scalars[newID[i]] = s.m.Scalars[j]
				}
			}
		})
	})

	// Pass 4: the cell structure is unchanged by welding — copy types and
	// rebase offsets per segment, remap connectivity through the
	// representative's new index.
	if nCells > 0 {
		out.Types = make([]CellType, nCells)
	}
	out.Offsets = make([]int32, nCells+1)
	out.Conn = make([]int32, nConn)
	pool.ForEach(len(segs), func(i, _ int) {
		s := &segs[i]
		cells := s.at[cellSpan]
		copy(out.Types[cells.dst:], s.m.Types[cells.lo:cells.hi])
		s.copyOffsets(out.Offsets[1+cells.dst:], 0)
	})
	pool.For(nConn, 0, func(lo, hi, _ int) {
		runs(segs, connSpan, lo, hi, func(s *cellSeg, a, b int) {
			d := int32(s.at[ptSpan].dst - s.at[ptSpan].lo)
			dst := out.Conn[s.at[connSpan].dst+a-s.at[connSpan].lo:]
			for j, v := range s.m.Conn[a:b] {
				dst[j] = newID[rep[v+d]]
			}
		})
	})

	pool.PutScratch(weldScratchKey{}, ws)
	return out
}

// mergedPoint returns the point at merged index i of laid-out segments.
func mergedPoint(segs []cellSeg, i int) Vec3 {
	lo, hi := 0, len(segs) // the point is in segs[lo:hi]
	for hi-lo > 1 {
		if mid := (lo + hi) / 2; segs[mid].at[ptSpan].dst <= i {
			lo = mid
		} else {
			hi = mid
		}
	}
	pts := segs[lo].at[ptSpan]
	return segs[lo].m.Points[pts.lo+i-pts.dst]
}
