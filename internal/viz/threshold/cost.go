package threshold

import "repro/internal/ops"

// gatherCost charges the survivor gather both formulations share over
// kept cells.
func gatherCost(p *ops.Profile, kept uint64) {
	p.LoadBytes[ops.Strided] += kept * 8 * 32 // corner positions + scalars
	p.IntOps += kept * 8 * 4                  // point-map lookups
	p.StoreBytes[ops.Stream] += kept * (8*32 + 8*4)
}

// tradCost prices the traditional fill launch over nCells cells, kept of
// which survive into outPoints points carrying a field of pfLen points.
func tradCost(nCells, kept, pfLen, outPoints uint64) (p ops.Profile) {
	p.Launches = 1
	// Threshold compacts with the classify → scan → scatter pattern (as
	// VTK-m does): the cell field is streamed twice (classify and
	// scatter-read), a mask/offset word is written per cell, and
	// survivors gather corner positions/scalars and store the compacted
	// cell. Almost pure streaming — the lowest-IPC, most bandwidth-bound
	// mix of the eight algorithms.
	p.LoadBytes[ops.Stream] = nCells * 24 // classify + scan + scatter passes
	p.StoreBytes[ops.Stream] = nCells * 6 // mask + offset words
	p.Flops = nCells
	p.Branches = nCells
	p.IntOps = nCells
	gatherCost(&p, kept)
	p.WorkingSetBytes = nCells*8 + pfLen*8 + outPoints*40 // cell field, carry field, output
	return
}

// dppCost is tradCost for the flag, compact, count and emit launches of
// the DPP formulation.
func dppCost(nCells, kept, pfLen, outPoints uint64) (p ops.Profile) {
	p.Launches = 4
	// Flag: one streamed load and compare per cell.
	p.LoadBytes[ops.Stream] = nCells * 8
	p.StoreBytes[ops.Stream] = nCells * 4
	p.Flops = nCells
	p.Branches = nCells
	// Compact: scan and scatter read the flags twice.
	p.LoadBytes[ops.Stream] += nCells * 8
	p.StoreBytes[ops.Stream] += nCells*4 + kept*4
	p.IntOps = nCells * 2
	// Count: the survivor ids and their point-map lookups.
	p.LoadBytes[ops.Stream] += kept * 4
	p.IntOps += kept * 8 * 4
	gatherCost(&p, kept) // emit
	// Beside the traditional footprint, the flag and survivor index
	// arrays are the DPP memory overhead.
	p.WorkingSetBytes = nCells*8 + pfLen*8 + outPoints*40 + nCells*8
	return
}
