package advect

import "repro/internal/ops"

// Cost prices t as launches kernel launches over a field of fieldPoints
// points that wrote linePoints streamline points: three trilinear
// component reconstructions (~90 flops) per sample plus the step
// combination and the controller's work on a rejected trial; samples
// read a cache-hot 8-corner neighborhood (resident), and each cell
// crossing pulls fresh lines.
func (t Tally) Cost(launches uint64, fieldPoints int, linePoints uint64) (p ops.Profile) {
	p.Launches = launches
	p.Flops = t.Samples*90 + t.Steps*30 + t.Rejects*20
	p.IntOps = t.Samples * 24
	p.Branches = t.Samples * 6
	p.LoadBytes[ops.Resident] = t.Samples * 192
	p.LoadBytes[ops.Random] = t.Crossings * 192
	p.RandomAccesses = t.Crossings
	p.StoreBytes[ops.Stream] = t.Steps * 32
	// The footprint is the field data along the particle paths (capped at
	// the full field: paths overlap) plus the output. Seed count, step
	// length, and step count are size-independent, so this is too — the
	// paper's Fig. 6 flat-IPC mechanism.
	p.WorkingSetBytes = min(t.Crossings*96, uint64(fieldPoints)*24) + linePoints*32
	return
}
