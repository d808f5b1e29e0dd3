package clover

import "repro/internal/ops"

// stepCost prices one Step over nc cells.
func stepCost(nc uint64) (p ops.Profile) {
	// EOS kernel: 5 field loads + 2 stores per cell, ~25 flops; each of
	// the two refreshes between the sweeps is the EOS without the signal
	// speed, ~20 flops.
	p.LoadBytes[ops.Stream] = 3 * nc * 5 * 8
	p.StoreBytes[ops.Stream] = 3 * nc * 2 * 8
	p.Flops = nc*25 + 2*nc*20
	p.Branches = 3 * nc
	// Per cell and sweep: 7 field loads for flux, 5 stores on update,
	// ~55 flops in the flux + update, a few branches. The x sweep
	// streams; the modeled kernel's y and z sweeps walk strided pencils —
	// it is what the cpu model prices, not this host's row traversal.
	p.LoadBytes[ops.Stream] += nc * 7 * 8
	p.StoreBytes[ops.Stream] += nc * 5 * 8
	p.LoadBytes[ops.Strided] = 2 * nc * 7 * 8
	p.StoreBytes[ops.Strided] = 2 * nc * 5 * 8
	p.Flops += 3 * nc * 55
	p.Branches += 3 * nc * 2
	p.WorkingSetBytes = nc * 7 * 8
	return
}
