package contour

import "repro/internal/ops"

// fillCost charges the fill both formulations share: each visited cell
// gathers its corner positions, builds 6 tets and classifies their 24
// corners; each triangle costs 3 edge interpolations and a streamed
// store.
func fillCost(p *ops.Profile, cells, tris uint64) {
	p.LoadBytes[ops.Strided] += cells * 8 * 24 // corner positions
	p.Flops += cells * 6 * 12                  // per-tet classification
	p.IntOps += cells * 6 * 10
	p.Branches += cells * 6 * 4
	p.Flops += tris * 3 * 9 // edge lerps
	p.StoreBytes[ops.Stream] += tris * 3 * 32
}

// tradCost prices a ContourField launch over nCells cells of a
// fieldLen-point field, crossed of which hold iso, emitting tris
// triangles: every cell gathers its 8 corner scalars (strided through
// the point array) and runs the min/max rejection; crossed cells fill.
func tradCost(nCells, crossed, tris, fieldLen uint64) (p ops.Profile) {
	p.Launches = 1
	p.LoadBytes[ops.Strided] = nCells * 8 * 8
	p.Flops = nCells * 16
	p.IntOps = nCells * 12
	p.Branches = nCells * 3
	fillCost(&p, crossed, tris)
	// The launch working set is the field plus the surface emitted by this
	// call — not the whole of out, which accumulates across the 10
	// isovalues of a cycle.
	p.WorkingSetBytes = fieldLen*8 + tris*3*32
	return
}

// dppCost is tradCost for the count, scan and emit launches of
// ContourFieldDPP, of whose cells emitting emit a triangle.
func dppCost(nCells, emitting, tris, fieldLen uint64) (p ops.Profile) {
	p.Launches = 3
	// Count: the corner scalar gather, 6 tets x 4 corner classifications,
	// and a count word per cell.
	p.LoadBytes[ops.Strided] = nCells * 8 * 8
	p.Flops = nCells * 16
	p.IntOps = nCells * 24
	p.Branches = nCells * 24
	p.StoreBytes[ops.Stream] = nCells * 4
	// Scan: the counts become offsets in place.
	p.LoadBytes[ops.Stream] = nCells * 4
	p.StoreBytes[ops.Stream] += nCells * 4
	p.IntOps += nCells
	// Emit: the offset stream, and the emitting cells' corner scalars
	// beside the positions the shared fill gathers.
	p.LoadBytes[ops.Stream] += nCells * 4
	p.LoadBytes[ops.Strided] += emitting * 8 * 8
	fillCost(&p, emitting, tris)
	// Working set: the field, the surface emitted by this call, and the
	// per-cell offset array — the DPP formulation's memory overhead.
	p.WorkingSetBytes = fieldLen*8 + tris*3*32 + nCells*4
	return
}
