package contour

import (
	"repro/internal/dpp"
	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/viz"
)

// This file is the data-parallel-primitive formulation of the contour
// kernel (the flying-edges-style count → scan → emit structure VTK-m
// uses, per Bethel et al. arXiv 2010.02361): a count pass classifies
// every cell and writes its triangle count, an exclusive scan turns the
// counts into per-cell output offsets, and the emit pass writes each
// chunk's triangles at the offset of its first cell — with fillTris, the
// traditional formulation's fill. The two formulations differ only in
// count granularity (per cell here, per chunk there) and in what
// cost.go charges them: the per-cell count array, its scan and its
// launches are the DPP formulation's measured cost.
//
// The output is bit-identical to the traditional backend: both write
// three fresh points per triangle in ascending cell order.

// triCounts is cellTriCount by corner mask: entry m is the triangle count
// of a cell whose corners at or above the isovalue are the bits of m
// (mesh.CellWalk.Masks). Both formulations' count passes look it up.
var triCounts = func() (t [256]uint8) {
	for m := range t {
		var dv [8]float64
		for c := range dv {
			dv[c] = float64(m >> c & 1)
		}
		t[m] = uint8(cellTriCount(&dv, 1))
	}
	return t
}()

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
func ContourFieldDPP(g *mesh.UniformGrid, field, carry []float64, rows Rows, iso float64, ex *viz.Exec, out *mesh.TriMesh) {
	nCells := g.NumCells()
	grain := par.GrainFor(nCells, ex.Pool.Workers())
	offs := make([]int32, nCells)
	cross := make([]uint8, nCells)

	// Pass 1 (count): classify every cell from its corner scalars and
	// store its triangle count.
	ex.Pool.For(nCells, grain, func(lo, hi, _ int) {
		crossing(g, field, rows, iso, lo, hi, cross)
		for cell, k := range cross[lo:hi] {
			if k > 1 {
				offs[lo+cell] = int32(k - 1)
			}
		}
	})

	// Scan: counts become output triangle offsets, in place.
	total := dpp.ScanExclusive(ex.Pool, offs, offs)

	// Size the output exactly once from the scan total — a chunk's
	// triangles run from its first cell's offset to the next chunk's —
	// then emit every chunk at its offset.
	em := mesh.Count(ex.Pool, nCells, grain, func(lo, hi, _ int) mesh.Sizes {
		next := total
		if hi < nCells {
			next = offs[hi]
		}
		tris := int(next - offs[lo])
		return mesh.Sizes{Points: 3 * tris, Cells: tris}
	})
	em.GrowTris(out)
	emitting := em.Fill(func(lo, hi, _ int, at mesh.Sizes) (mesh.Sizes, uint64) {
		end, _, n := fillTris(g, field, carry, iso, cross, lo, hi, out, at)
		return end, n
	})
	ex.Charge(dppCost(uint64(nCells), emitting, uint64(total), uint64(len(field))))
}
