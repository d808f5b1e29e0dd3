package mesh

import (
	"slices"

	"repro/internal/par"
)

// This file implements the zero-allocation geometry pipeline shared by the
// cell-centered filters (contour, slice, clip, isovolume, threshold).
//
// Each parallel launch leases a collector from the pool's scratch store.
// Every chunk of the loop opens a segment (Seg) on the executing worker's
// reusable scratch mesh and appends its geometry there; connectivity
// emitted during a segment must reference only points appended during that
// same segment. When the loop completes, Release performs a two-phase
// merge: it computes each segment's extent and destination offset (sorted
// by loop position, so output ordering matches the old serial
// out.Append(part) loops exactly), grows the destination once to the final
// size, then copies and renumbers all segments in parallel. The filters
// that weld their output (clip, isovolume) call ReleaseWelded instead,
// which hands the laid-out segments to the weld (weld.go) and so never
// builds the merged copy. The scratch meshes are reset — not freed — and
// the collector returns to the pool's store without its pool reference, so
// a steady-state sweep (the paper's 288-configuration experiment) re-runs
// the whole pipeline without per-chunk heap allocation, and a pool that is
// closed or dropped gives the scratch back.

type triCollectorKey struct{}
type cellCollectorKey struct{}

// triSeg records one chunk's slice of a worker scratch TriMesh.
type triSeg struct {
	lo         int // loop start index of the chunk: the merge-order key
	w          int // worker whose scratch holds the segment
	p0, t0     int // start offsets in the scratch
	p1, t1     int // end offsets (filled in by Release)
	dstP, dstT int // destination offsets (filled in by Release)
}

// triWorker is one worker's scratch mesh and segment log, padded so
// neighboring workers do not share a cache line.
type triWorker struct {
	m    *TriMesh
	segs []triSeg
	_    [32]byte
}

// TriCollector gathers per-chunk triangle output into per-worker scratch
// meshes and merges them with a two-phase parallel copy. Acquire one per
// launch with AcquireTriCollector; it is not safe to share across
// concurrent launches (each launch leases its own).
type TriCollector struct {
	pool *par.Pool // held from Acquire to Release only
	ws   []triWorker
	segs []triSeg // merge staging, reused across launches
}

// AcquireTriCollector leases a collector (with warm scratch buffers, after
// the first launch) from the pool's scratch store.
func AcquireTriCollector(pool *par.Pool) *TriCollector {
	c, _ := pool.GetScratch(triCollectorKey{}).(*TriCollector)
	if c == nil {
		c = &TriCollector{}
	}
	c.pool = pool
	for len(c.ws) < pool.Workers() {
		c.ws = append(c.ws, triWorker{})
	}
	return c
}

// Seg opens a segment for the chunk starting at loop index lo and returns
// the scratch mesh the chunk must append to. Triangles appended during the
// segment must reference only points appended during the segment (indices
// are scratch-absolute; Release renumbers them).
func (c *TriCollector) Seg(lo, worker int) *TriMesh {
	w := &c.ws[worker]
	if w.m == nil {
		w.m = &TriMesh{}
	}
	w.segs = append(w.segs, triSeg{lo: lo, w: worker, p0: len(w.m.Points), t0: len(w.m.Tris)})
	return w.m
}

// Release merges all segments into out in ascending loop order, resets the
// scratch meshes for reuse, and returns the collector to the pool (the
// caller must not use it afterwards). It reports how many points and
// triangles were appended to out.
func (c *TriCollector) Release(out *TriMesh) (points, tris int) {
	segs := c.segs[:0]
	for wi := range c.ws {
		w := &c.ws[wi]
		// Segments were appended in execution order, so each one ends where
		// the next began.
		for si := range w.segs {
			s := &w.segs[si]
			if si+1 < len(w.segs) {
				s.p1, s.t1 = w.segs[si+1].p0, w.segs[si+1].t0
			} else {
				s.p1, s.t1 = len(w.m.Points), len(w.m.Tris)
			}
		}
		segs = append(segs, w.segs...)
	}
	slices.SortFunc(segs, func(a, b triSeg) int { return a.lo - b.lo })
	pBase, tBase := len(out.Points), len(out.Tris)
	totP, totT := 0, 0
	for i := range segs {
		s := &segs[i]
		s.dstP, s.dstT = pBase+totP, tBase+totT
		totP += s.p1 - s.p0
		totT += s.t1 - s.t0
	}
	out.Points = slices.Grow(out.Points, totP)[:pBase+totP]
	out.Scalars = slices.Grow(out.Scalars, totP)[:pBase+totP]
	out.Tris = slices.Grow(out.Tris, totT)[:tBase+totT]
	c.segs = segs
	c.pool.ForEach(len(segs), func(i, _ int) {
		s := &c.segs[i]
		src := c.ws[s.w].m
		copy(out.Points[s.dstP:], src.Points[s.p0:s.p1])
		copy(out.Scalars[s.dstP:], src.Scalars[s.p0:s.p1])
		d := int32(s.dstP - s.p0)
		dst := out.Tris[s.dstT : s.dstT+(s.t1-s.t0)]
		for j, tr := range src.Tris[s.t0:s.t1] {
			dst[j] = [3]int32{tr[0] + d, tr[1] + d, tr[2] + d}
		}
	})
	for wi := range c.ws {
		w := &c.ws[wi]
		if w.m != nil {
			w.m.Points = w.m.Points[:0]
			w.m.Scalars = w.m.Scalars[:0]
			w.m.Tris = w.m.Tris[:0]
		}
		w.segs = w.segs[:0]
	}
	c.segs = c.segs[:0]
	// A parked value must not reference the pool (par.NewPool).
	pool := c.pool
	c.pool = nil
	pool.PutScratch(triCollectorKey{}, c)
	return totP, totT
}

// span is a run of one array of a segment's mesh: elements [lo, hi) there
// are elements dst, dst+1, … of the merged order.
type span struct{ lo, hi, dst int }

func (s span) len() int { return s.hi - s.lo }

// The three arrays a cell segment spans. Scalars run with the points and
// cell offsets with the types.
const (
	ptSpan = iota
	cellSpan
	connSpan
	numSpans
)

// cellSeg records one chunk's slice of an UnstructuredMesh: a worker's
// scratch for the collector's segments, the whole of a finished mesh when
// WeldPointsPool welds one. The connectivity inside a segment references
// only the segment's own points, by their index in m.
type cellSeg struct {
	lo int               // loop start index of the chunk: the merge-order key
	m  *UnstructuredMesh // mesh that holds the segment
	at [numSpans]span
}

// runs calls f with each piece [a, b) of the segments' spans of one array
// that holds merged elements [lo, hi), in merged order. segs must be laid
// out (sorted, dst assigned), so their spans abut.
func runs(segs []cellSeg, array, lo, hi int, f func(s *cellSeg, a, b int)) {
	i, _ := slices.BinarySearchFunc(segs, lo, func(s cellSeg, lo int) int {
		if sp := s.at[array]; sp.dst+sp.len() <= lo {
			return -1
		}
		return 1
	})
	for ; i < len(segs) && segs[i].at[array].dst < hi; i++ {
		sp := segs[i].at[array]
		a, b := sp.lo+max(lo-sp.dst, 0), min(sp.hi, sp.lo+hi-sp.dst)
		if a < b {
			f(&segs[i], a, b)
		}
	}
}

type cellWorker struct {
	m     *UnstructuredMesh
	local map[int]int32
	segs  []cellSeg
	_     [16]byte
}

// CellCollector is the UnstructuredMesh counterpart of TriCollector, used
// by the clip, isovolume, and threshold filters.
type CellCollector struct {
	pool *par.Pool // held from Acquire to the release only
	ws   []cellWorker
	segs []cellSeg
}

// AcquireCellCollector leases a collector from the pool's scratch store.
func AcquireCellCollector(pool *par.Pool) *CellCollector {
	c, _ := pool.GetScratch(cellCollectorKey{}).(*CellCollector)
	if c == nil {
		c = &CellCollector{}
	}
	c.pool = pool
	for len(c.ws) < pool.Workers() {
		c.ws = append(c.ws, cellWorker{})
	}
	return c
}

// Seg opens a segment for the chunk starting at loop index lo and returns
// the scratch mesh. Cells added during the segment must reference only
// points added during the segment. The worker's Local map is cleared as a
// side effect, so point dedup via Local never crosses a segment boundary.
func (c *CellCollector) Seg(lo, worker int) *UnstructuredMesh {
	w := &c.ws[worker]
	if w.m == nil {
		w.m = NewUnstructuredMesh()
	}
	if len(w.local) > 0 {
		clear(w.local)
	}
	w.segs = append(w.segs, cellSeg{lo: lo, m: w.m, at: [numSpans]span{
		ptSpan: {lo: len(w.m.Points)}, cellSpan: {lo: len(w.m.Types)}, connSpan: {lo: len(w.m.Conn)},
	}})
	return w.m
}

// Local returns the worker's segment-scoped dedup map (grid point index →
// scratch point index), cleared at each Seg call. Filters that pass whole
// cells through (threshold, clip's fully-inside hexes) use it to share
// vertices between the cells of one chunk without allocating a map per
// chunk.
func (c *CellCollector) Local(worker int) map[int]int32 {
	w := &c.ws[worker]
	if w.local == nil {
		w.local = make(map[int]int32, 64)
	}
	return w.local
}

// layout closes every segment, sorts them into ascending loop order and
// assigns each span its place in the merged order. It returns the staged
// segments and the merged totals per array.
func (c *CellCollector) layout() (segs []cellSeg, tot [numSpans]int) {
	segs = c.segs[:0]
	for wi := range c.ws {
		w := &c.ws[wi]
		// Segments were appended in execution order, so each one ends where
		// the next began, and the last where the scratch does.
		for si := range w.segs {
			end := [numSpans]int{ptSpan: len(w.m.Points), cellSpan: len(w.m.Types), connSpan: len(w.m.Conn)}
			for a := range end {
				if si+1 < len(w.segs) {
					end[a] = w.segs[si+1].at[a].lo
				}
				w.segs[si].at[a].hi = end[a]
			}
		}
		segs = append(segs, w.segs...)
	}
	slices.SortFunc(segs, func(a, b cellSeg) int { return a.lo - b.lo })
	for i := range segs {
		for a := range tot {
			segs[i].at[a].dst = tot[a]
			tot[a] += segs[i].at[a].len()
		}
	}
	c.segs = segs
	return segs, tot
}

// park resets the scratch for reuse and returns the collector to the
// pool's store, without the pool: a parked value must not reference it
// (par.NewPool).
func (c *CellCollector) park() {
	for wi := range c.ws {
		w := &c.ws[wi]
		if w.m != nil {
			w.m.Points = w.m.Points[:0]
			w.m.Scalars = w.m.Scalars[:0]
			w.m.Types = w.m.Types[:0]
			w.m.Conn = w.m.Conn[:0]
			w.m.Offsets = w.m.Offsets[:1]
		}
		w.segs = w.segs[:0]
	}
	c.segs = c.segs[:0]
	pool := c.pool
	c.pool = nil
	pool.PutScratch(cellCollectorKey{}, c)
}

// Release merges all segments into out in ascending loop order, resets the
// scratch for reuse, and returns the collector to the pool (the caller
// must not use it afterwards). It reports how many points and cells were
// appended to out.
func (c *CellCollector) Release(out *UnstructuredMesh) (points, cells int) {
	segs, tot := c.layout()
	if len(out.Offsets) == 0 {
		out.Offsets = append(out.Offsets, 0)
	}
	pBase, cBase, nBase := len(out.Points), len(out.Types), len(out.Conn)
	out.Points = slices.Grow(out.Points, tot[ptSpan])[:pBase+tot[ptSpan]]
	out.Scalars = slices.Grow(out.Scalars, tot[ptSpan])[:pBase+tot[ptSpan]]
	out.Types = slices.Grow(out.Types, tot[cellSpan])[:cBase+tot[cellSpan]]
	out.Conn = slices.Grow(out.Conn, tot[connSpan])[:nBase+tot[connSpan]]
	out.Offsets = slices.Grow(out.Offsets, tot[cellSpan])[:cBase+1+tot[cellSpan]]
	c.pool.ForEach(len(segs), func(i, _ int) {
		s := &segs[i]
		pts, cells, conn := s.at[ptSpan], s.at[cellSpan], s.at[connSpan]
		copy(out.Points[pBase+pts.dst:], s.m.Points[pts.lo:pts.hi])
		copy(out.Scalars[pBase+pts.dst:], s.m.Scalars[pts.lo:pts.hi])
		copy(out.Types[cBase+cells.dst:], s.m.Types[cells.lo:cells.hi])
		d := int32(pBase + pts.dst - pts.lo)
		dstConn := out.Conn[nBase+conn.dst:]
		for j, v := range s.m.Conn[conn.lo:conn.hi] {
			dstConn[j] = v + d
		}
		s.copyOffsets(out.Offsets[cBase+1+cells.dst:], int32(nBase))
	})
	c.park()
	return tot[ptSpan], tot[cellSpan]
}

// copyOffsets writes the end offset of each of the segment's cells to dst,
// rebased from the segment's mesh to the merged connectivity that starts
// at base.
func (s *cellSeg) copyOffsets(dst []int32, base int32) {
	cells, conn := s.at[cellSpan], s.at[connSpan]
	d := base + int32(conn.dst-conn.lo)
	for j := 0; j < cells.len(); j++ {
		dst[j] = s.m.Offsets[cells.lo+1+j] + d
	}
}

// ReleaseWelded merges all segments in ascending loop order and welds the
// points that coincide within tol, writing the welded mesh directly: it is
// WeldPointsPool of what Release would have produced, without producing
// it. It resets the scratch, returns the collector to the pool, and
// reports the point count before welding, which is what the filters charge
// the weld by.
func (c *CellCollector) ReleaseWelded(tol float64) (out *UnstructuredMesh, preWeld int) {
	segs, tot := c.layout()
	out = weldSegs(segs, tot, tol, c.pool)
	c.park()
	return out, tot[ptSpan]
}
