package mesh

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/par"
)

// This file is the one emission path of the geometry filters (contour,
// slice, clip, isovolume, threshold): count → exclusive scan → fill, the
// data-parallel-primitive formulation Bethel et al. (arXiv 2010.02361)
// analyse. A count pass runs over the chunks of the filter's cell loop
// and returns what each chunk will emit; an exclusive scan over the chunk
// counts gives every chunk its offsets and the output its exact size,
// allocated once; a fill pass writes every chunk straight to its offsets.
// Chunks land in loop order whichever worker ran them, so the output is
// the serial emission's at every worker count, and nothing but the output
// outlives the call: no scratch mesh, no merge copy, nothing parked in the
// pool.

// Sizes is an amount of emitted geometry, or an offset into it: points,
// cells (triangles, in a TriMesh) and connectivity entries.
type Sizes struct{ Points, Cells, Conn int }

func (s Sizes) add(o Sizes) Sizes {
	return Sizes{s.Points + o.Points, s.Cells + o.Cells, s.Conn + o.Conn}
}

// Emission is a counted loop: where each chunk's output starts.
type Emission struct {
	pool     *par.Pool
	n, grain int
	chunks   []chunk // chunk c fills [chunks[c].at, chunks[c+1].at)
	// Total is what the whole loop emits.
	Total Sizes
}

// chunk is one chunk's offsets and the two counts its fill reported.
type chunk struct {
	at      Sizes
	counted [2]uint64
}

// Count runs count over the chunks [lo, hi) of a loop of n items, lo a
// multiple of grain — the chunks Fill visits — and scans the chunk counts
// into each chunk's offsets.
func Count(pool *par.Pool, n, grain int, count func(lo, hi, worker int) Sizes) Emission {
	e := counted(pool, n, grain, count)
	e.scan()
	return e
}

// counted is Count before the scan: chunk c's count is at chunks[c+1].
func counted(pool *par.Pool, n, grain int, count func(lo, hi, worker int) Sizes) Emission {
	cs := make([]chunk, (n+grain-1)/grain+1)
	pool.For(n, grain, func(lo, hi, worker int) { cs[lo/grain+1].at = count(lo, hi, worker) })
	return Emission{pool: pool, n: n, grain: grain, chunks: cs}
}

// scan turns the chunk counts into offsets and the total.
func (e *Emission) scan() {
	cs := e.chunks
	for c := 1; c < len(cs); c++ {
		cs[c].at = cs[c].at.add(cs[c-1].at)
	}
	e.Total = cs[len(cs)-1].at
}

// Fill runs fill over the counted chunks, handing each its offsets. fill
// returns the offsets one past what it wrote, which must be where the
// next chunk starts (a fill that strays from its count panics), and two
// counts for the caller's cost functions (a caller that needs one passes
// 0 for the other); Fill returns their sums.
func (e *Emission) Fill(fill func(lo, hi, worker int, at Sizes) (Sizes, uint64, uint64)) (a, b uint64) {
	cs, grain := e.chunks, e.grain
	e.pool.For(e.n, grain, func(lo, hi, worker int) {
		c := lo / grain
		end, n, m := fill(lo, hi, worker, cs[c].at)
		if end != cs[c+1].at {
			panic(fmt.Sprintf("mesh: chunk [%d, %d) filled up to %+v, counted %+v", lo, hi, end, cs[c+1].at))
		}
		cs[c].counted = [2]uint64{n, m}
	})
	for _, c := range cs {
		a += c.counted[0]
		b += c.counted[1]
	}
	return a, b
}

// GrowTris makes room at the end of out for the emission, its cells
// counted as triangles, and moves the chunk offsets past what out already
// holds.
func (e *Emission) GrowTris(out *TriMesh) {
	base := Sizes{Points: len(out.Points), Cells: len(out.Tris)}
	out.Points = slices.Grow(out.Points, e.Total.Points)[:base.Points+e.Total.Points]
	out.Scalars = slices.Grow(out.Scalars, e.Total.Points)[:base.Points+e.Total.Points]
	out.Tris = slices.Grow(out.Tris, e.Total.Cells)[:base.Cells+e.Total.Cells]
	for c := range e.chunks {
		e.chunks[c].at = e.chunks[c].at.add(base)
	}
}

// Cells returns an UnstructuredMesh sized exactly for the emission.
func (e *Emission) Cells() *UnstructuredMesh {
	return &UnstructuredMesh{
		Points:  make([]Vec3, e.Total.Points),
		Scalars: make([]float64, e.Total.Points),
		Types:   make([]CellType, e.Total.Cells),
		Offsets: make([]int32, e.Total.Cells+1),
		Conn:    make([]int32, e.Total.Conn),
	}
}

// cellWriter writes one chunk's cells into a sized mesh, from the chunk's
// offsets on: Next is where the next point, cell and connectivity entry
// go.
type cellWriter struct {
	Mesh *UnstructuredMesh
	Next Sizes
}

// AddPoint writes a point with its scalar and returns its index.
func (w *cellWriter) AddPoint(p Vec3, s float64) int32 {
	i := w.Next.Points
	w.Mesh.Points[i], w.Mesh.Scalars[i] = p, s
	w.Next.Points++
	return int32(i)
}

// AddCell writes a cell of type t; len(conn) must match the type.
func (w *cellWriter) AddCell(t CellType, conn ...int32) {
	w.Mesh.Types[w.Next.Cells] = t
	copy(w.Mesh.Conn[w.Next.Conn:], conn)
	w.Next.Cells++
	w.Next.Conn += len(conn)
	w.Mesh.Offsets[w.Next.Cells] = int32(w.Next.Conn)
}

// A Key names a point an emitter writes, exactly: a grid point's id times
// 256 plus a slot, the emitter's name for which of its points at that
// grid point it is (the grid point itself, a cut on one of its lattice
// edges, …). Threshold, clip and isovolume name every point they emit
// so; all the writes of one key are one output point.
type Key uint64

// PointKey returns the key of slot at grid point pid.
func PointKey(pid, slot int) Key { return Key(pid)<<8 | Key(slot) }

// KeySlots are an emitter's slots: N of them per grid point (at most
// 64), and Flat, with bit s set when slot s's points lie in the k-plane
// of their grid point — the plane two k-layers of cells share, so that
// the cells on both sides of it can emit them. Slot 0 is the grid point
// itself, which KeyWindow.Hex emits, so bit 0 is set.
type KeySlots struct {
	N    int
	Flat uint64
}

// KeyedEmission is a counted loop over a grid's cells whose points are
// named by keys and written once each, in the order their keys are first
// emitted: the output a position weld of the per-cell emission keeps,
// without that emission. Its chunks are the k-layers of cells. A layer's
// KeyWindow numbers its points by key in dense per-slot arrays over the
// layer's two point planes. Two layers share only the plane between
// them, and a key emitted on both sides of it is the lower layer's: the
// count pass records, per plane, which flat keys each side emitted (a
// bit per key), the seam's shared keys come off the upper layer's count
// before the scan, and the upper layer's fill writes them as placeholders
// that Fill resolves once the lower layer has numbered them.
type KeyedEmission struct {
	Emission
	// Soup is the per-cell emission a position weld would take: every
	// point of every cut cell, and the corners of whole hexahedra once
	// per GrainFixed chunk. The cost models price it.
	Soup    Sizes
	slots   KeySlots
	plane   int // points per k-plane
	gfGrain int // par.GrainFixed of the cell count
	wins    []KeyWindow
	seams   []seam // seams[k] is point plane k, between layers k-1 and k
}

// seam is what the layers on both sides of a point plane emit in it.
type seam struct {
	below, above bitset // flat keys emitted by the layer below / above
	rank         []int32
	global       []int32 // output index of each of below's keys, by rank
	// Corners of whole hexahedra of the GrainFixed chunk that spans the
	// seam, on each side of it (Soup counts a corner once per chunk).
	soupBelow, soupAbove bitset
}

// bitset is a set of small integers, allocated on the first set.
type bitset []uint64

func (b *bitset) set(i, n int) {
	if *b == nil {
		*b = make(bitset, (n+63)/64)
	}
	(*b)[i/64] |= 1 << (i % 64)
}

func (b bitset) has(i int) bool { return b != nil && b[i/64]>>(i%64)&1 != 0 }

// common returns how many integers both sets hold.
func (b bitset) common(o bitset) (n int) {
	if b == nil || o == nil {
		return 0
	}
	for i, w := range b {
		n += bits.OnesCount64(w & o[i])
	}
	return n
}

// rankOf returns how many of below's keys precede bit i.
func (s *seam) rankOf(i int) int32 {
	return s.rank[i/64] + int32(bits.OnesCount64(s.below[i/64]&(1<<(i%64)-1)))
}

// CountKeyed runs walk in counting mode over every k-layer of g's cells
// and sizes the emission. walk emits a layer's cells through the
// KeyWindow, in cell order, and returns a count its caller sums from
// Fill; Fill runs it again, writing, and it must emit the same.
func CountKeyed(pool *par.Pool, g *UniformGrid, slots KeySlots, walk func(lo, hi int, kw *KeyWindow) uint64) *KeyedEmission {
	cd := g.CellDims()
	perLayer := cd[0] * cd[1]
	e := &KeyedEmission{
		slots: slots,
		plane: g.Dims[0] * g.Dims[1],
		wins:  make([]KeyWindow, pool.Workers()),
		seams: make([]seam, cd[2]),
	}
	soup := make([]int, cd[2])
	gf := par.GrainFixed(g.NumCells())
	e.gfGrain = gf
	e.Emission = counted(pool, g.NumCells(), perLayer, func(lo, hi, worker int) Sizes {
		kw := e.window(worker, lo/perLayer, false)
		kw.soupBelow, kw.soupAbove = -1, -1
		if lo%gf != 0 {
			kw.soupBelow = lo / gf
		}
		if hi%gf != 0 && hi < g.NumCells() {
			kw.soupAbove = (hi - 1) / gf
		}
		walk(lo, hi, kw)
		soup[lo/perLayer] = kw.soup
		return Sizes{kw.unique, kw.cells, kw.conn}
	})
	pool.For(len(e.seams), 1, func(lo, hi, _ int) {
		for k := lo; k < hi; k++ {
			s := &e.seams[k]
			e.chunks[k+1].at.Points -= s.below.common(s.above)
			soup[k] -= s.soupBelow.common(s.soupAbove)
			s.soupBelow, s.soupAbove, s.above = nil, nil, nil
			if s.below != nil {
				s.rank = make([]int32, len(s.below))
				var n int32
				for i, w := range s.below {
					s.rank[i] = n
					n += int32(bits.OnesCount64(w))
				}
				s.global = make([]int32, n)
			}
		}
	})
	e.scan()
	e.Soup = e.Total
	e.Soup.Points = 0
	for _, n := range soup {
		e.Soup.Points += n
	}
	return e
}

// Fill runs walk in writing mode over every layer, into a mesh sized for
// the emission, and returns the mesh and the sum of walk's counts.
func (e *KeyedEmission) Fill(walk func(lo, hi int, kw *KeyWindow) uint64) (*UnstructuredMesh, uint64) {
	out := e.Cells()
	n, _ := e.Emission.Fill(func(lo, hi, worker int, at Sizes) (Sizes, uint64, uint64) {
		kw := e.window(worker, lo/e.grain, true)
		kw.w = cellWriter{Mesh: out, Next: at}
		n := walk(lo, hi, kw)
		return kw.w.Next, n, 0
	})
	// The points a layer shares with the one below are the lower layer's,
	// numbered now.
	e.pool.For(len(e.seams), 1, func(lo, hi, _ int) {
		for k := lo; k < hi; k++ {
			global := e.seams[k].global
			if global == nil {
				continue
			}
			conn := out.Conn[e.chunks[k].at.Conn:e.chunks[k+1].at.Conn]
			for j, v := range conn {
				if v < 0 {
					conn[j] = global[-v-1]
				}
			}
		}
	})
	return out, n
}

// KeyWindow numbers the points of one k-layer of cells by key, for
// CountKeyed (counting) and KeyedEmission.Fill (writing). The layer's
// cells touch only the grid points of its two point planes, so one int32
// per slot and point of those planes — an output index + 1, a
// placeholder for a point of the layer below, zero until the layer first
// emits the key — stands in for a map.
type KeyWindow struct {
	e       *KeyedEmission
	fill    bool
	layer   int
	base    int     // id of the layer's first grid point
	ids     []int32 // slot s of grid point base+i at s*2*plane + i
	touched []int32 // the ids set, to clear for the next layer
	w       cellWriter
	// The seams of the layer's bottom and top planes, nil where no layer
	// lies beyond them.
	below, above *seam

	// Counting: the layer's distinct keys, cells and connectivity, its
	// Soup points, the epoch — one per layer and GrainFixed chunk a
	// worker counts — in which a whole hex last wrote each point, the
	// current epoch and the end of its chunk, the chunks that span the
	// layer's bottom and top planes (or -1), and whether the current
	// chunk is either.
	unique, cells, conn, soup int
	stamp                     []int32
	epoch                     int32
	gfEnd                     int
	soupBelow, soupAbove      int
	spanBelow, spanAbove      bool
}

// window readies worker's window for a layer.
func (e *KeyedEmission) window(worker, layer int, fill bool) *KeyWindow {
	kw := &e.wins[worker]
	span := 2 * e.plane
	if kw.ids == nil {
		kw.ids = make([]int32, e.slots.N*span)
		kw.stamp = make([]int32, span)
	}
	for _, i := range kw.touched {
		kw.ids[i] = 0
	}
	*kw = KeyWindow{e: e, fill: fill, layer: layer, base: layer * e.plane, ids: kw.ids, touched: kw.touched[:0], stamp: kw.stamp, epoch: kw.epoch + 1}
	if layer > 0 {
		kw.below = &e.seams[layer]
	}
	if layer+1 < len(e.seams) {
		kw.above = &e.seams[layer+1]
	}
	return kw
}

// Point emits the point named k, at p with scalar s, and returns the
// index the cells that use it write (0 when counting).
func (kw *KeyWindow) Point(k Key, p Vec3, s float64) int32 {
	pid, slot := int(k>>8), int(k&0xFF)
	i := slot*2*kw.e.plane + pid - kw.base
	if !kw.fill {
		kw.soup++
		if kw.ids[i] == 0 {
			sm, bit, top := kw.seam(pid, slot)
			kw.mark(i, sm, bit, top)
		}
		return 0
	}
	if kw.ids[i] == 0 {
		sm, bit, top := kw.seam(pid, slot)
		kw.first(i, sm, bit, top, p, s)
	}
	return ref(kw.ids[i])
}

// Hex emits the walk's current cell whole, as a hexahedron on its grid
// points, each carrying its carry value.
func (kw *KeyWindow) Hex(cell *CellWalk, carry []float64) {
	if kw.fill {
		var conn [8]int32
		for c := range conn {
			pid := cell.Point(c)
			i := pid - kw.base
			if kw.ids[i] == 0 {
				s, bit, top := kw.hexSeam(c, i)
				kw.first(i, s, bit, top, cell.Corner(c), carry[pid])
			}
			conn[c] = ref(kw.ids[i])
		}
		kw.w.AddCell(Hex, conn[:]...)
		return
	}
	kw.cells++
	kw.conn += 8
	if cell.Cell >= kw.gfEnd {
		kw.chunk(cell.Cell)
	}
	// A corner stamped in this epoch is marked too.
	for c := 0; c < 8; c++ {
		i := cell.Point(c) - kw.base
		if kw.stamp[i] == kw.epoch {
			continue
		}
		kw.stamp[i] = kw.epoch
		kw.soup++
		s, bit, top := kw.hexSeam(c, i)
		if kw.ids[i] == 0 {
			kw.mark(i, s, bit, top)
		}
		switch {
		case top && kw.spanAbove:
			s.soupBelow.set(bit, kw.e.plane)
		case !top && kw.spanBelow:
			s.soupAbove.set(bit, kw.e.plane)
		}
	}
}

// hexSeam is seam for corner c of a hex, at window index i: the corner's
// key, slot 0, lies in the layer's bottom plane for corners 0–3 and in
// its top one for 4–7.
func (kw *KeyWindow) hexSeam(c, i int) (s *seam, bit int, top bool) {
	if c < 4 {
		return kw.below, i, false
	}
	return kw.above, i - kw.e.plane, true
}

// chunk starts counting the whole hexes of cell's GrainFixed chunk.
func (kw *KeyWindow) chunk(cell int) {
	gf := cell / kw.e.gfGrain
	kw.gfEnd = (gf + 1) * kw.e.gfGrain
	kw.epoch++
	kw.spanBelow, kw.spanAbove = gf == kw.soupBelow, gf == kw.soupAbove
}

// Cell emits a cell of type t on points Point returned.
func (kw *KeyWindow) Cell(t CellType, conn ...int32) {
	if !kw.fill {
		kw.cells++
		kw.conn += len(conn)
		return
	}
	kw.w.AddCell(t, conn...)
}

// ref is the connectivity entry of a window id: an output index, or a
// placeholder (negative) for a point of the layer below.
func ref(id int32) int32 {
	if id > 0 {
		return id - 1
	}
	return id
}

// mark counts the key at window index i, which the layer emits for the
// first time, and records it at bit in s, its seam (see seam).
func (kw *KeyWindow) mark(i int, s *seam, bit int, top bool) {
	kw.ids[i] = 1
	kw.touched = append(kw.touched, int32(i))
	kw.unique++
	if s != nil {
		n := bits.OnesCount64(kw.e.slots.Flat) * kw.e.plane
		if top {
			s.below.set(bit, n)
		} else {
			s.above.set(bit, n)
		}
	}
}

// first gives the key at window index i, which the layer emits for the
// first time, its id: the layer below's point when that layer emitted
// the key too (bit in s, its seam: see seam), a new point otherwise.
func (kw *KeyWindow) first(i int, s *seam, bit int, top bool, p Vec3, sc float64) {
	kw.touched = append(kw.touched, int32(i))
	if s != nil && !top && s.below.has(bit) {
		kw.ids[i] = -(s.rankOf(bit) + 1)
		return
	}
	id := kw.w.AddPoint(p, sc)
	kw.ids[i] = id + 1
	if s != nil && top {
		s.global[s.rankOf(bit)] = id
	}
}

// seam returns the seam a key lies in — nil unless its slot is flat and
// its plane has a layer on the other side — its bit there, and whether
// the plane is the layer's top one.
func (kw *KeyWindow) seam(pid, slot int) (s *seam, bit int, top bool) {
	flat := kw.e.slots.Flat
	if flat>>slot&1 == 0 {
		return nil, 0, false
	}
	i := pid - kw.base
	s = kw.below
	if top = i >= kw.e.plane; top {
		i -= kw.e.plane
		s = kw.above
	}
	return s, bits.OnesCount64(flat&(1<<slot-1))*kw.e.plane + i, top
}
