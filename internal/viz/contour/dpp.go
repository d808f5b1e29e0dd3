package contour

import (
	"repro/internal/dpp"
	"repro/internal/mesh"
	"repro/internal/ops"
	"repro/internal/par"
	"repro/internal/viz"
)

// This file is the data-parallel-primitive formulation of the contour
// kernel (the flying-edges-style count → scan → emit structure VTK-m
// uses, per Bethel et al. arXiv 2010.02361): a count pass classifies
// every cell and writes its triangle count, an exclusive scan turns the
// counts into output offsets, and an emit pass re-derives each crossed
// cell's geometry and writes its triangles directly at the scanned
// offsets. No scratch meshes, no merge — the output arrays are sized
// exactly once from the scan total.
//
// The formulation is bit-identical to the traditional backend: the
// scratch-mesh path emits three fresh points per triangle in ascending
// cell order (the collector merges segments by loop position), so
// triangle t of a call occupies points 3t, 3t+1, 3t+2 — exactly where
// the scanned offsets place it.

// dppScratch holds the per-cell triangle-count/offset array, leased from
// the pool so the steady-state sweep runs without allocating it.
type dppScratch struct {
	offs []int32
}

type dppScratchKey struct{}

// cellTriCount classifies one cell from its eight corner scalars alone:
// the number of marching-tetrahedra triangles across the six-tet
// decomposition. It mirrors Tet.Contour's corner test (D >= iso counts
// as inside) without touching positions — the count pass needs no
// geometry.
func cellTriCount(dv *[8]float64, iso float64) int32 {
	var tris int32
	for _, tet := range viz.HexTets {
		ni := 0
		for _, c := range tet {
			if dv[c] >= iso {
				ni++
			}
		}
		switch ni {
		case 1, 3:
			tris++
		case 2:
			tris += 2
		}
	}
	return tris
}

// ContourFieldDPP is ContourField re-expressed on the dpp primitives:
// count pass → exclusive scan → emit pass. Output is bit-identical to
// ContourField (same points, scalars, and triangle ordering) at every
// worker count.
func ContourFieldDPP(g *mesh.UniformGrid, field, carry []float64, iso float64, ex *viz.Exec, out *mesh.TriMesh) {
	nCells := g.NumCells()
	grain := par.GrainFor(nCells, ex.Pool.Workers())
	ws, _ := ex.Pool.GetScratch(dppScratchKey{}).(*dppScratch)
	if ws == nil {
		ws = &dppScratch{}
	}
	if cap(ws.offs) < nCells {
		ws.offs = make([]int32, nCells)
	}
	offs := ws.offs[:nCells]

	// Pass 1 (count): classify every cell from its corner scalars and
	// store its triangle count.
	ex.Rec(0).Launch()
	ex.Pool.For(nCells, grain, func(lo, hi, worker int) {
		rec := ex.Rec(worker)
		var dv [8]float64
		for cell := lo; cell < hi; cell++ {
			pts := g.CellPoints(cell)
			for c := 0; c < 8; c++ {
				dv[c] = field[pts[c]]
			}
			offs[cell] = cellTriCount(&dv, iso)
		}
		n := uint64(hi - lo)
		rec.Loads(n*8*8, ops.Strided) // corner scalar gather
		rec.Flops(n * 16)
		rec.IntOps(n * 24) // 6 tets x 4 corner classifications
		rec.Branches(n * 24)
		rec.Stores(n*4, ops.Stream) // count word
	})

	// Scan: counts become output triangle offsets, in place.
	ex.Rec(0).Launch()
	total := dpp.ScanExclusive(ex.Pool, offs, offs)
	rec0 := ex.Rec(0)
	rec0.Loads(uint64(nCells)*4, ops.Stream)
	rec0.Stores(uint64(nCells)*4, ops.Stream)
	rec0.IntOps(uint64(nCells))

	// Size the output exactly once from the scan total: 3 fresh points
	// per triangle, appended after whatever previous isovalues emitted.
	pBase, tBase := len(out.Points), len(out.Tris)
	T := int(total)
	out.Points = append(out.Points, make([]mesh.Vec3, 3*T)...)
	out.Scalars = append(out.Scalars, make([]float64, 3*T)...)
	out.Tris = append(out.Tris, make([][3]int32, T)...)

	// Pass 2 (emit): crossed cells re-derive their tets and write
	// triangles at their scanned offsets. A cell's count is recovered
	// from the offset delta, so the scan could run in place.
	ex.Rec(0).Launch()
	ex.Pool.For(nCells, grain, func(lo, hi, worker int) {
		rec := ex.Rec(worker)
		var ts [6]viz.Tet
		var crossed, tris uint64
		for cell := lo; cell < hi; cell++ {
			next := total
			if cell+1 < nCells {
				next = offs[cell+1]
			}
			t := int(offs[cell])
			if next == int32(t) {
				continue
			}
			crossed++
			viz.CellTets(g, field, carry, cell, &ts)
			for i := range ts {
				ts[i].Contour(iso, func(p0, p1, p2 mesh.Vec3, s0, s1, s2 float64) {
					p := pBase + 3*t
					out.Points[p], out.Points[p+1], out.Points[p+2] = p0, p1, p2
					out.Scalars[p], out.Scalars[p+1], out.Scalars[p+2] = s0, s1, s2
					out.Tris[tBase+t] = [3]int32{int32(p), int32(p + 1), int32(p + 2)}
					t++
					tris++
				})
			}
		}
		n := uint64(hi - lo)
		rec.Loads(n*4, ops.Stream)               // offset stream
		rec.Loads(crossed*8*(24+8), ops.Strided) // corner positions + scalars
		rec.Flops(crossed * 6 * 12)              // per-tet classification
		rec.IntOps(crossed * 6 * 10)
		rec.Branches(crossed * 6 * 4)
		rec.Flops(tris * 3 * 9) // edge lerps
		rec.Stores(tris*3*32, ops.Stream)
	})

	ex.Pool.PutScratch(dppScratchKey{}, ws)
	// Working set: the field, the surface emitted by this call, and the
	// per-cell offset array — the DPP formulation's memory overhead.
	rec0.WorkingSet(uint64(len(field))*8 + uint64(3*T)*32 + uint64(nCells)*4)
}
