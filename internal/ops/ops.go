// Package ops provides operation accounting for instrumented compute kernels.
//
// The reproduction cannot read hardware performance counters (the paper used
// msr-safe on a real Broadwell node), so every visualization and simulation
// kernel in this repository is priced as a Profile — floating-point
// operations, integer operations, branches, and memory traffic classified by
// access pattern. The Profile is what the simulated processor model
// (internal/cpu) consumes to derive execution time, power draw, effective
// frequency, IPC, and last-level-cache behavior under a RAPL power cap.
//
// A kernel's loops count only what the data decides; the cost.go of its
// package turns those counts and the sizes the launch knows into the
// launch's Profile.
package ops

// Pattern classifies the spatial locality of a block of memory accesses.
// The cache model in internal/cpu treats the classes very differently:
// streaming traffic is almost entirely hidden by hardware prefetch, while
// random (data-dependent gather/scatter) traffic pays full DRAM latency
// whenever the working set exceeds the last-level cache.
type Pattern uint8

const (
	// Stream is unit-stride sequential access (e.g. iterating a field
	// array). Hardware prefetchers hide most of its latency.
	Stream Pattern = iota
	// Strided is regular non-unit-stride access (e.g. walking the eight
	// corners of each hexahedral cell through a point array). Prefetchers
	// help partially.
	Strided
	// Random is data-dependent access (e.g. BVH traversal, point
	// locator lookups during particle advection). No prefetch help.
	Random
	// Resident is heavily-reused access to a footprint that stays
	// cache-hot (e.g. a ray marcher resampling the same bricks, a
	// particle revisiting its neighborhood). It generates almost no
	// last-level-cache traffic while the working set fits.
	Resident
	numPatterns = 4
)

// String returns the lower-case name of the pattern.
func (p Pattern) String() string {
	switch p {
	case Stream:
		return "stream"
	case Strided:
		return "strided"
	case Random:
		return "random"
	case Resident:
		return "resident"
	}
	return "unknown"
}

// Profile is the accumulated operation counts of one or more kernel
// executions. It is a pure value type; Add combines profiles from different
// workers or pipeline stages.
type Profile struct {
	// Flops counts scalar floating-point operations (adds, multiplies,
	// divides, comparisons on float64 data, math-library calls are
	// reported by the kernels as an equivalent number of elementary ops).
	Flops uint64
	// IntOps counts integer arithmetic/logic operations (index math,
	// case-table lookups, comparisons).
	IntOps uint64
	// Branches counts conditional branches retired.
	Branches uint64
	// LoadBytes and StoreBytes record memory traffic by access pattern.
	LoadBytes  [numPatterns]uint64
	StoreBytes [numPatterns]uint64
	// RandomAccesses counts discrete random touch events (each one is a
	// potential cache miss regardless of its size in bytes).
	RandomAccesses uint64
	// Launches counts kernel launches (parallel-for dispatches). Each one
	// carries a serial low-IPC overhead in the processor model, which is
	// what makes small data sets less efficient (paper Fig. 4).
	Launches uint64
	// WorkingSetBytes is the kernel's estimate of the distinct data it
	// touches (fields in + geometry out). The cache model compares this
	// with the LLC capacity. Add keeps the maximum rather than the sum:
	// pipeline stages revisit the same field arrays.
	WorkingSetBytes uint64
}

// Add accumulates q into p. Counters sum; the working set keeps the max.
func (p *Profile) Add(q Profile) {
	p.Flops += q.Flops
	p.IntOps += q.IntOps
	p.Branches += q.Branches
	for i := 0; i < numPatterns; i++ {
		p.LoadBytes[i] += q.LoadBytes[i]
		p.StoreBytes[i] += q.StoreBytes[i]
	}
	p.RandomAccesses += q.RandomAccesses
	p.Launches += q.Launches
	if q.WorkingSetBytes > p.WorkingSetBytes {
		p.WorkingSetBytes = q.WorkingSetBytes
	}
}

// TotalLoadBytes returns load traffic summed over all patterns.
func (p *Profile) TotalLoadBytes() uint64 {
	var t uint64
	for _, b := range p.LoadBytes {
		t += b
	}
	return t
}

// TotalStoreBytes returns store traffic summed over all patterns.
func (p *Profile) TotalStoreBytes() uint64 {
	var t uint64
	for _, b := range p.StoreBytes {
		t += b
	}
	return t
}

// MemBytes returns total memory traffic (loads + stores).
func (p *Profile) MemBytes() uint64 {
	return p.TotalLoadBytes() + p.TotalStoreBytes()
}

// Instructions estimates the retired-instruction count that a hardware
// counter (INST_RETIRED.ANY) would have observed for this profile: one
// instruction per arithmetic op and branch, and one per 8-byte memory word
// moved (the kernels operate on float64 data).
func (p *Profile) Instructions() uint64 {
	mem := p.MemBytes() / 8
	return p.Flops + p.IntOps + p.Branches + mem
}
