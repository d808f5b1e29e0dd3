package mesh

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/par"
)

// This file is the one emission path of the geometry filters (contour,
// slice, clip, isovolume, threshold): count → exclusive scan → fill over
// the k-layers of a grid's cells (KeyedEmission), the data-parallel-
// primitive formulation Bethel et al. (arXiv 2010.02361) analyse.

// Sizes is an amount of emitted geometry, or an offset into it: points,
// cells (triangles, in a TriMesh) and connectivity entries.
type Sizes struct{ Points, Cells, Conn int }

func (s Sizes) add(o Sizes) Sizes {
	return Sizes{s.Points + o.Points, s.Cells + o.Cells, s.Conn + o.Conn}
}

// A Key names a point an emitter writes, exactly: a grid point's id times
// 256 plus a slot, the emitter's name for which of its points at that
// grid point it is (the grid point itself, a cut on one of its lattice
// edges, …). Every filter names every point it emits so; all the writes
// of one key are one output point.
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

// A Walk emits the cells [lo, hi) of one k-layer through kw, in cell
// order, and returns two counts for its caller's cost functions (a
// caller that needs one returns 0 for the other). Count runs it
// counting and Fill or FillTris writing; it must emit the same both
// times.
type Walk func(lo, hi int, kw *KeyWindow) (uint64, uint64)

// KeyedEmission is a counted loop over a grid's cells whose points are
// named by keys and written once each, in the order their keys are first
// emitted: the output a position weld of the per-cell emission keeps,
// without that emission. The count runs the filter's walk over every
// k-layer of cells and counts its distinct points, cells and
// connectivity; the scan gives every layer its offsets and the output
// its exact size, allocated once (a new UnstructuredMesh, or triangle
// rows appended to a TriMesh); the fill runs the walk again and writes
// every layer at its offsets, so the output is the same at every worker
// count. A layer's KeyWindow numbers its points by key in dense per-slot
// arrays over its two point planes. A key emitted on both sides of the
// plane two layers share is the lower layer's: the count records, per
// plane, which flat keys each side emitted (a bit per key), the shared
// ones come off the upper layer's count, and the upper layer's fill
// writes them as placeholders resolved once the lower layer has numbered
// them. The zero value is ready; an emission reuses the windows and seam
// buffers of the one before it on the same value.
type KeyedEmission struct {
	// Total is what the whole loop emits.
	Total Sizes
	// Soup is the per-cell emission a position weld would take: every
	// point of every cut cell, and the corners of whole hexahedra once
	// per GrainFixed chunk. The cost models price it.
	Soup Sizes

	pool         *par.Pool
	n, perLayer  int
	slots        KeySlots
	plane        int // points per k-plane
	gfGrain      int // par.GrainFixed of the cell count
	chunks       []chunk
	wins         []KeyWindow
	visits       [][]int32 // per worker, the cells its count noted, layer after layer
	w            rowWriter // the output the fill writes, at its start
	seams        []seam    // seams[k] is point plane k, between layers k-1 and k
	bits         []uint64  // the seams' bitsets, end to end
	rank, global []int32   // the seams' rank, and the output index of each seam key
}

// chunk is one layer's offsets (layer c fills [chunks[c].at,
// chunks[c+1].at)). From chunks[c+1] on, it also holds layer c's Soup
// points, the two counts its fill reported, and where its noted cells
// (KeyWindow.Visit) lie: visits[worker][from:to].
type chunk struct {
	at               Sizes
	counted          [2]uint64
	soup             int
	worker, from, to int
}

// seam is what the layers on both sides of a point plane emit in it.
type seam struct {
	below, above bitset  // flat keys emitted by the layer below / above
	rank         []int32 // below's keys before each word of below, then all of them
	at           int     // where global holds below's keys' output indices, by rank
	// Corners of whole hexahedra of the GrainFixed chunk that spans the
	// seam, on each side of it (Soup counts a corner once per chunk).
	soupBelow, soupAbove bitset
}

// bitset is a set of small integers.
type bitset []uint64

func (b bitset) set(i int)      { b[i/64] |= 1 << (i % 64) }
func (b bitset) has(i int) bool { return b[i/64]>>(i%64)&1 != 0 }

// common returns how many integers both sets hold.
func (b bitset) common(o bitset) (n int) {
	for i, w := range b {
		n += bits.OnesCount64(w & o[i])
	}
	return n
}

// rankOf returns how many of below's keys precede bit i.
func (s *seam) rankOf(i int) int32 {
	return s.rank[i/64] + int32(bits.OnesCount64(s.below[i/64]&(1<<(i%64)-1)))
}

// zeroed returns s resized to n zero elements, reusing its array when it
// is large enough.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Count runs walk in counting mode over every k-layer of g's cells and
// sizes the emission; Fill or FillTris writes it.
func (e *KeyedEmission) Count(pool *par.Pool, g *UniformGrid, slots KeySlots, walk Walk) {
	cd := g.CellDims()
	layers, plane := cd[2], g.Dims[0]*g.Dims[1]
	e.pool, e.n, e.perLayer, e.slots, e.plane, e.gfGrain = pool, g.NumCells(), cd[0]*cd[1], slots, plane, par.GrainFixed(g.NumCells())
	e.chunks = zeroed(e.chunks, layers+1)
	if len(e.wins) < pool.Workers() {
		e.wins, e.visits = make([]KeyWindow, pool.Workers()), make([][]int32, pool.Workers())
	}
	for i, v := range e.visits {
		e.visits[i] = slices.Grow(v[:0], e.perLayer)
	}
	// Each seam's bitsets: below and above over its flat keys, soupBelow
	// and soupAbove over its grid points.
	fw, pw := (bits.OnesCount64(slots.Flat)*plane+63)/64, (plane+63)/64
	e.seams = zeroed(e.seams, layers)
	e.bits = zeroed(e.bits, layers*2*(fw+pw))
	e.rank = zeroed(e.rank, layers*(fw+1))
	for k := range e.seams {
		b := e.bits[k*2*(fw+pw):]
		e.seams[k] = seam{
			below: b[:fw:fw], above: b[fw : 2*fw : 2*fw],
			soupBelow: b[2*fw : 2*fw+pw : 2*fw+pw], soupAbove: b[2*fw+pw : 2*(fw+pw) : 2*(fw+pw)],
			rank: e.rank[k*(fw+1) : (k+1)*(fw+1)],
		}
	}

	pool.For(e.n, e.perLayer, func(lo, hi, worker int) {
		kw := e.window(worker, lo/e.perLayer, false)
		from := len(e.visits[worker])
		kw.soupBelow, kw.soupAbove = -1, -1
		if lo%e.gfGrain != 0 {
			kw.soupBelow = lo / e.gfGrain
		}
		if hi%e.gfGrain != 0 && hi < e.n {
			kw.soupAbove = (hi - 1) / e.gfGrain
		}
		walk(lo, hi, kw)
		e.chunks[lo/e.perLayer+1] = chunk{at: Sizes{kw.unique, kw.cells, kw.conn}, soup: kw.soup, worker: worker, from: from, to: len(e.visits[worker])}
	})
	// The keys a seam's two layers share are the lower layer's: they come
	// off the upper layer's count, and below's keys are ranked for the
	// fill to find their output indices by. The pass reads a bit per flat
	// key of each plane, 64 to a word: too short to hand to the pool.
	nGlobal := 0
	for k := range e.seams {
		s, c := &e.seams[k], &e.chunks[k+1]
		c.at.Points -= s.below.common(s.above)
		c.soup -= s.soupBelow.common(s.soupAbove)
		for i, w := range s.below {
			s.rank[i+1] = s.rank[i] + int32(bits.OnesCount64(w))
		}
		s.at, nGlobal = nGlobal, nGlobal+int(s.rank[fw])
	}
	e.global = zeroed(e.global, nGlobal)

	// The scan: layer counts become offsets.
	e.Soup = Sizes{}
	for c := 1; c < len(e.chunks); c++ {
		e.chunks[c].at = e.chunks[c].at.add(e.chunks[c-1].at)
		e.Soup.Points += e.chunks[c].soup
	}
	e.Total = e.chunks[len(e.chunks)-1].at
	e.Soup.Cells, e.Soup.Conn = e.Total.Cells, e.Total.Conn
}

// Fill runs walk in writing mode over every layer, into a mesh sized for
// the emission, and returns the mesh and the sums of walk's two counts.
func (e *KeyedEmission) Fill(walk Walk) (*UnstructuredMesh, uint64, uint64) {
	t := e.Total
	w := rowWriter{points: make([]Vec3, t.Points), scalars: make([]float64, t.Points), types: make([]CellType, t.Cells), offsets: make([]int32, t.Cells+1), conn: make([]int32, t.Conn)}
	a, b := e.fill(w, walk)
	return &UnstructuredMesh{Points: w.points, Scalars: w.scalars, Types: w.types, Offsets: w.offsets, Conn: w.conn}, a, b
}

// FillTris runs walk in writing mode over every layer, appending the
// emission to out as triangles (the walk emits them with KeyWindow.Tri),
// and returns the sums of walk's two counts.
func (e *KeyedEmission) FillTris(walk Walk, out *TriMesh) (uint64, uint64) {
	base := Sizes{Points: len(out.Points), Cells: len(out.Tris), Conn: 3 * len(out.Tris)}
	out.Points = slices.Grow(out.Points, e.Total.Points)[:base.Points+e.Total.Points]
	out.Scalars = slices.Grow(out.Scalars, e.Total.Points)[:base.Points+e.Total.Points]
	out.Tris = slices.Grow(out.Tris, e.Total.Cells)[:base.Cells+e.Total.Cells]
	return e.fill(rowWriter{points: out.Points, scalars: out.Scalars, tris: out.Tris, next: base}, walk)
}

// fill runs walk in writing mode over every layer through w, which is
// positioned at the emission's start, and resolves the placeholders.
func (e *KeyedEmission) fill(w rowWriter, walk Walk) (a, b uint64) {
	cs, base := e.chunks, w.next
	e.w = w
	e.pool.For(e.n, e.perLayer, func(lo, hi, worker int) {
		c := lo / e.perLayer
		kw := e.window(worker, c, true)
		kw.w = e.w
		kw.w.next = cs[c].at.add(base)
		n, m := walk(lo, hi, kw)
		if end := cs[c+1].at.add(base); kw.w.next != end {
			panic(fmt.Sprintf("mesh: chunk [%d, %d) filled up to %+v, counted %+v", lo, hi, kw.w.next, end))
		}
		cs[c].counted = [2]uint64{n, m}
	})
	// The points a layer shares with the one below are the lower layer's,
	// numbered now.
	e.pool.For(len(e.seams), 1, func(lo, hi, _ int) {
		for k := lo; k < hi; k++ {
			if s := &e.seams[k]; s.rank[len(s.rank)-1] > 0 {
				e.w.resolve(cs[k].at.add(base), cs[k+1].at.add(base), e.global[s.at:])
			}
		}
	})
	for _, c := range cs {
		a += c.counted[0]
		b += c.counted[1]
	}
	return a, b
}

// rowWriter writes one layer's points and cells into the output from the
// layer's offsets on: next is where the next point, cell and
// connectivity entry go. Cells go into types, offsets and conn, an
// UnstructuredMesh's, or are triangle rows of tris, a TriMesh's.
type rowWriter struct {
	points        []Vec3
	scalars       []float64
	types         []CellType
	offsets, conn []int32
	tris          [][3]int32
	next          Sizes
}

// addPoint writes a point with its scalar and returns its index.
func (w *rowWriter) addPoint(p Vec3, s float64) int32 {
	i := w.next.Points
	w.points[i], w.scalars[i] = p, s
	w.next.Points++
	return int32(i)
}

// addCell writes a cell of type t; len(conn) must match the type.
func (w *rowWriter) addCell(t CellType, conn []int32) {
	w.types[w.next.Cells] = t
	copy(w.conn[w.next.Conn:], conn)
	w.next.Cells++
	w.next.Conn += len(conn)
	w.offsets[w.next.Cells] = int32(w.next.Conn)
}

// addTri writes a triangle row.
func (w *rowWriter) addTri(a, b, c int32) {
	w.tris[w.next.Cells] = [3]int32{a, b, c}
	w.next.Cells++
	w.next.Conn += 3
}

// resolve replaces the placeholders written between from and to by the
// output indices in global.
func (w *rowWriter) resolve(from, to Sizes, global []int32) {
	patch := func(conn []int32) {
		for j, v := range conn {
			if v < 0 {
				conn[j] = global[-v-1]
			}
		}
	}
	if w.tris == nil {
		patch(w.conn[from.Conn:to.Conn])
		return
	}
	for i := from.Cells; i < to.Cells; i++ {
		patch(w.tris[i][:])
	}
}

// KeyWindow numbers the points of one k-layer of cells by key, for
// KeyedEmission.Count (counting) and Fill (writing). The layer's cells
// touch only the grid points of its two point planes, so one int32 per
// slot and point of those planes — an output index + 1, a placeholder
// for a point of the layer below, zero until the layer first emits the
// key — stands in for a map.
type KeyWindow struct {
	e       *KeyedEmission
	fill    bool
	layer   int
	base    int     // id of the layer's first grid point
	ids     []int32 // slot s of grid point base+i at s*2*plane + i
	touched []int32 // the ids set, to clear for the next layer
	worker  int
	w       rowWriter
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
	for _, i := range kw.touched {
		kw.ids[i] = 0
	}
	if n := e.slots.N * 2 * e.plane; len(kw.ids) < n {
		kw.ids, kw.touched = make([]int32, n), make([]int32, 0, 2*e.plane)
	}
	*kw = KeyWindow{e: e, fill: fill, layer: layer, base: layer * e.plane, ids: kw.ids, touched: kw.touched[:0], worker: worker, stamp: kw.stamp, epoch: kw.epoch + 1}
	if layer > 0 {
		kw.below = &e.seams[layer]
	}
	if layer+1 < len(e.seams) {
		kw.above = &e.seams[layer+1]
	}
	return kw
}

// Visit notes, while counting, the walk's current cell c as one the
// fill is to visit: a walk whose count classifies many cells and emits
// from few need not classify them again.
func (kw *KeyWindow) Visit(c int) { kw.e.visits[kw.worker] = append(kw.e.visits[kw.worker], int32(c)) }

// Visited returns, while writing, the cells the count noted for the
// layer, in the order it noted them.
func (kw *KeyWindow) Visited() []int32 {
	c := &kw.e.chunks[kw.layer+1]
	return kw.e.visits[c.worker][c.from:c.to]
}

// Writing reports whether the window writes (Fill, FillTris) rather than
// counts (Count): a walk may skip computing what only a written point
// needs, its position and scalar.
func (kw *KeyWindow) Writing() bool { return kw.fill }

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
		kw.w.addCell(Hex, conn[:])
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
			s.soupBelow.set(bit)
		case !top && kw.spanBelow:
			s.soupAbove.set(bit)
		}
	}
}

// hexSeam is seam for corner c of a hex, at window index i: its key,
// slot 0, lies in the bottom plane for corners 0–3, the top for 4–7.
func (kw *KeyWindow) hexSeam(c, i int) (s *seam, bit int, top bool) {
	if c < 4 {
		return kw.below, i, false
	}
	return kw.above, i - kw.e.plane, true
}

// chunk starts counting the whole hexes of cell's GrainFixed chunk.
func (kw *KeyWindow) chunk(cell int) {
	if len(kw.stamp) < 2*kw.e.plane {
		kw.stamp = make([]int32, 2*kw.e.plane)
	}
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
	kw.w.addCell(t, conn)
}

// Tri emits a triangle on points Point returned, a row of the TriMesh
// FillTris appends to.
func (kw *KeyWindow) Tri(a, b, c int32) {
	if !kw.fill {
		kw.cells++
		kw.conn += 3
		return
	}
	kw.w.addTri(a, b, c)
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
		if top {
			s.below.set(bit)
		} else {
			s.above.set(bit)
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
	id := kw.w.addPoint(p, sc)
	kw.ids[i] = id + 1
	if s != nil && top {
		kw.e.global[s.at+int(s.rankOf(bit))] = id
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
