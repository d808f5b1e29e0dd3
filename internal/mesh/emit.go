package mesh

import (
	"fmt"
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
	cs := make([]chunk, (n+grain-1)/grain+1)
	pool.For(n, grain, func(lo, hi, worker int) { cs[lo/grain+1].at = count(lo, hi, worker) })
	for c := 1; c < len(cs); c++ {
		cs[c].at = cs[c].at.add(cs[c-1].at)
	}
	return Emission{pool: pool, n: n, grain: grain, chunks: cs, Total: cs[len(cs)-1].at}
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

// CellWriter writes one chunk's cells into a sized mesh, from the chunk's
// offsets on: Next is where the next point, cell and connectivity entry
// go.
type CellWriter struct {
	Mesh *UnstructuredMesh
	Next Sizes
}

// AddPoint writes a point with its scalar and returns its index.
func (w *CellWriter) AddPoint(p Vec3, s float64) int32 {
	i := w.Next.Points
	w.Mesh.Points[i], w.Mesh.Scalars[i] = p, s
	w.Next.Points++
	return int32(i)
}

// AddCell writes a cell of type t; len(conn) must match the type.
func (w *CellWriter) AddCell(t CellType, conn ...int32) {
	w.Mesh.Types[w.Next.Cells] = t
	copy(w.Mesh.Conn[w.Next.Conn:], conn)
	w.Next.Cells++
	w.Next.Conn += len(conn)
	w.Mesh.Offsets[w.Next.Cells] = int32(w.Next.Conn)
}

// AddHex writes the walk's current cell whole, as a hexahedron whose
// corners are deduplicated through win, a new corner carrying its carry
// value.
func (w *CellWriter) AddHex(cell *CellWalk, carry []float64, win *PointWindow) {
	var conn [8]int32
	for c := range conn {
		pid := cell.Point(c)
		id := &win.ids[pid-win.base]
		if *id == 0 {
			*id = w.AddPoint(cell.Corner(c), carry[pid]) + 1
		}
		conn[c] = *id - 1
	}
	w.AddCell(Hex, conn[:]...)
}

// PointWindow deduplicates the grid points of the cells a chunk passes
// through whole (threshold's cells, the unclipped hexes of clip and
// isovolume). The cells [lo, hi) touch only grid points CellPoints(lo)[0]
// through CellPoints(hi-1)[6], so one int32 per point of that window —
// the output index + 1, zero until the chunk first emits the point —
// stands in for a map; points are numbered in first-touch order.
type PointWindow struct {
	base int
	ids  []int32
}

// Reset empties the window and fits it to the chunk [lo, hi) of g's
// cells.
func (win *PointWindow) Reset(g *UniformGrid, lo, hi int) {
	win.base = g.CellPoints(lo)[0]
	n := g.CellPoints(hi - 1)[6] - win.base + 1
	if cap(win.ids) < n {
		win.ids = make([]int32, n)
		return
	}
	win.ids = win.ids[:n]
	clear(win.ids)
}

// Mark marks the corners of the walk's current cell as emitted and
// returns how many were new: the count pass's half of AddHex.
func (win *PointWindow) Mark(cell *CellWalk) (fresh int) {
	for c := 0; c < 8; c++ {
		if id := &win.ids[cell.Point(c)-win.base]; *id == 0 {
			*id = 1
			fresh++
		}
	}
	return fresh
}
