package histogram

import "repro/internal/ops"

// cost prices the binning launch of nCells cell values into bins bins.
func cost(nCells, bins uint64) (p ops.Profile) {
	p.Launches = 1
	p.LoadBytes[ops.Stream] = nCells * 8
	p.Flops = nCells * 2
	p.IntOps = nCells * 3
	p.Branches = nCells * 2
	p.StoreBytes[ops.Stream] = bins * 8
	p.WorkingSetBytes = nCells*8 + bins*8
	return
}
