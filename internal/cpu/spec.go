// Package cpu models the processor the paper measured — an Intel Xeon
// E5-2695 v4 ("Broadwell") package under Intel RAPL power capping — from
// first principles. This is the hardware-gate substitution of the
// reproduction (see DESIGN.md §2): we cannot read real MSRs here, so an
// instrumented kernel's ops.Profile is converted into execution time,
// power draw, effective frequency, IPC, and LLC behavior by an analytic
// model with three coupled pieces:
//
//  1. a core model — per-operation-class issue costs give core cycles;
//     a per-kernel-launch serial overhead captures the low-IPC setup work
//     that dominates small data sets (the mechanism behind the paper's
//     Fig. 4, IPC rising with data-set size for cell-centered filters);
//  2. a cache/memory model — traffic classified as resident / stream /
//     strided / random is filtered to last-level-cache references and
//     misses, with residency (working set vs. 45 MB LLC) driving capacity
//     misses (the mechanism behind Fig. 5, volume rendering's IPC falling
//     at 256³) and prefetch effectiveness growing with stream length;
//  3. a power model — P(f) = uncore + cores·(leak + cdyn·(f/f₀)³·activity),
//     where activity blends busy fraction and instruction-mix intensity,
//     so memory-bound filters demand little power (the paper's "power
//     opportunity" class) and compute-bound filters demand a lot ("power
//     sensitive").
//
// A RAPL-style governor then selects the highest 100 MHz frequency step
// whose modeled power fits the enforced cap, exactly the mechanism the
// paper describes in §III-A.
package cpu

// Spec holds the architectural parameters of the modeled processor
// package. The zero value is not useful; start from BroadwellEP() and
// override fields as needed.
type Spec struct {
	// Name identifies the model (for reports).
	Name string
	// Cores is the number of physical cores in the package.
	Cores int
	// BaseGHz is the guaranteed base clock.
	BaseGHz float64
	// AllCoreTurboGHz is the maximum sustained all-core turbo clock and
	// the top of the governor's frequency ladder.
	AllCoreTurboGHz float64
	// MinGHz is the bottom of the frequency ladder.
	MinGHz float64
	// StepGHz is the frequency ladder granularity (P-state step).
	StepGHz float64
	// TDPWatts is the thermal design power (the default RAPL limit).
	TDPWatts float64
	// MinCapWatts is the lowest enforceable RAPL cap.
	MinCapWatts float64

	// Per-operation reciprocal throughputs, in core cycles. Loads and
	// stores are per 8-byte word (L1-hit cost; miss stalls are modeled
	// separately by the memory model). Loads cost more for the irregular
	// patterns: gathers serialize on address generation and defeat
	// vectorization.
	FlopCycles        float64
	IntOpCycles       float64
	BranchCycles      float64
	LoadCyclesByClass [4]float64 // indexed by ops.Pattern
	StoreCycles       float64
	// LaunchOverheadCycles is the serial, low-IPC cost charged once per
	// recorded kernel launch (parallel-for dispatch, table setup,
	// reduction trees).
	LaunchOverheadCycles float64
	// ParallelEfficiency discounts the ideal cycles/Cores split for
	// scheduling imbalance.
	ParallelEfficiency float64

	// Cache/memory hierarchy.
	LLCBytes         uint64
	CacheLineBytes   uint64
	DRAMLatencyNs    float64
	DRAMBandwidthGBs float64
	// MemParallelism is the average number of outstanding misses each
	// core overlaps (MLP); it divides the latency-stall component.
	MemParallelism float64

	// Power model.
	UncoreWatts   float64 // package uncore + fabric, frequency-insensitive
	CoreLeakWatts float64 // per-core static power
	// CdynWatts is per-core dynamic power at BaseGHz with activity 1.0.
	CdynWatts float64
	// FreqExponent is the exponent of the dynamic-power/frequency curve
	// (≈3 because voltage scales with frequency on the DVFS ladder).
	FreqExponent float64
	// StallActivity is the activity level of a core stalled on memory
	// (clock gating is imperfect).
	StallActivity float64
}

// BroadwellEP returns the specification of one Intel Xeon E5-2695 v4
// package as deployed in RZTopaz (the paper's testbed): 18 cores, 2.1 GHz
// base, 2.6 GHz all-core turbo, 120 W TDP, capable of being capped down to
// 40 W, with 45 MB of last-level cache.
func BroadwellEP() Spec {
	return Spec{
		Name:            "Intel Xeon E5-2695 v4 (Broadwell-EP, modeled)",
		Cores:           18,
		BaseGHz:         2.1,
		AllCoreTurboGHz: 2.6,
		MinGHz:          1.2,
		StepGHz:         0.1,
		TDPWatts:        120,
		MinCapWatts:     40,

		FlopCycles:   0.35,
		IntOpCycles:  0.35,
		BranchCycles: 0.40,
		// Stream, Strided, Random, Resident (ops.Pattern order).
		LoadCyclesByClass:    [4]float64{0.60, 2.00, 2.40, 0.60},
		StoreCycles:          0.80,
		LaunchOverheadCycles: 120e3,
		ParallelEfficiency:   0.92,

		LLCBytes:         45 << 20,
		CacheLineBytes:   64,
		DRAMLatencyNs:    85,
		DRAMBandwidthGBs: 65,
		MemParallelism:   6,

		UncoreWatts:   14.0,
		CoreLeakWatts: 0.55,
		CdynWatts:     1.65,
		FreqExponent:  2.2,
		StallActivity: 0.35,
	}
}

// KNLLike returns a many-core architecture in the spirit of Intel Xeon
// Phi (Knights Landing): 64 modest cores behind a very wide on-package
// memory system. It exists for the paper's future-work question — how do
// the power/performance tradeoffs shift on architectures with different
// capping behavior? With ~7x the memory bandwidth, the study's data-bound
// algorithms become core-bound and lose their "free capping" property.
func KNLLike() Spec {
	return Spec{
		Name:            "many-core / wide-HBM (KNL-like, modeled)",
		Cores:           64,
		BaseGHz:         1.3,
		AllCoreTurboGHz: 1.5,
		MinGHz:          0.8,
		StepGHz:         0.1,
		TDPWatts:        215,
		MinCapWatts:     70,

		FlopCycles:           0.30, // wide vectors
		IntOpCycles:          0.50,
		BranchCycles:         0.70, // in-order-ish penalty
		LoadCyclesByClass:    [4]float64{0.60, 2.40, 3.20, 0.60},
		StoreCycles:          0.90,
		LaunchOverheadCycles: 300e3, // more cores to fan out across
		ParallelEfficiency:   0.85,

		LLCBytes:         16 << 30, // MCDRAM in cache mode
		CacheLineBytes:   64,
		DRAMLatencyNs:    150,
		DRAMBandwidthGBs: 420,
		MemParallelism:   8,

		UncoreWatts:   35,
		CoreLeakWatts: 0.40,
		CdynWatts:     1.95,
		FreqExponent:  2.2,
		StallActivity: 0.30,
	}
}

// EPYCLike returns a high-core-count x86 package in the spirit of AMD
// Naples, whose TDP PowerCap interface the paper cites as the AMD
// counterpart of RAPL: 32 cores, a large LLC, and a coarser capping
// floor.
func EPYCLike() Spec {
	return Spec{
		Name:            "32-core x86 (EPYC-like, modeled)",
		Cores:           32,
		BaseGHz:         2.2,
		AllCoreTurboGHz: 2.7,
		MinGHz:          1.2,
		StepGHz:         0.1,
		TDPWatts:        180,
		MinCapWatts:     90,

		FlopCycles:           0.40,
		IntOpCycles:          0.35,
		BranchCycles:         0.40,
		LoadCyclesByClass:    [4]float64{0.60, 2.00, 2.40, 0.60},
		StoreCycles:          0.80,
		LaunchOverheadCycles: 160e3,
		ParallelEfficiency:   0.90,

		LLCBytes:         64 << 20,
		CacheLineBytes:   64,
		DRAMLatencyNs:    95,
		DRAMBandwidthGBs: 130,
		MemParallelism:   6,

		UncoreWatts:   28,
		CoreLeakWatts: 0.60,
		CdynWatts:     1.55,
		FreqExponent:  2.2,
		StallActivity: 0.35,
	}
}
